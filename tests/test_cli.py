"""End-to-end CLI coverage: every subcommand, every exit code."""

import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from testscore import (
    BudgetExceededError,
    Distribution,
    ProjectStore,
    RngSpec,
    Scenario,
    ValueFunction,
    ingest_ratings,
    load_scenario,
    project_utility,
    random_bsp_scenario,
    read_ratings,
    save_scenario,
    scenario_from_dict,
    validate_instance,
)
from testscore import cli, data, optimize, sketch, utility
from testscore.core import DEFAULT_BUDGET
from testscore.adversarial import CATALOGUE_POOL, GENERATORS, InstanceReport
from testscore.scenario_io import value_fn_tag
from test_scenario_io import ENTRY_LIST_REFUSED, entry_list
from testscore.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PROPERTY,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)


def coin(v, p=0.5):
    return Distribution.from_pairs(((0.0, 1.0 - p), (v, p)))


@pytest.fixture
def bestshot_file(tmp_path):
    scn = Scenario(
        dists=(
            (Distribution.point(1.0),),
            (coin(3.0, 0.4),),
            (coin(2.0, 0.9),),
            (Distribution.point(0.5),),
        ),
        value_fns=(ValueFunction.best_shot(),),
        cardinalities=(2,),
    )
    path = tmp_path / "bestshot.json"
    save_scenario(path, scn, agent_names=["ann", "bob", "cat", "dan"])
    return str(path)


@pytest.fixture
def welfare_file(tmp_path):
    scn = Scenario(
        dists=(
            (Distribution.point(2.0), coin(1.0)),
            (coin(3.0, 0.5), Distribution.point(1.0)),
            (Distribution.point(1.0), coin(2.0, 0.25)),
        ),
        value_fns=(ValueFunction.best_shot(), ValueFunction.ces(1.0)),
        cardinalities=(1, 2),
    )
    path = tmp_path / "welfare.json"
    save_scenario(
        path, scn, agent_names=["ann", "bob", "cat"], project_names=["api", "ui"]
    )
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSelect:
    def test_happy_path(self, capsys, bestshot_file):
        code, out, _ = run(capsys, ["select", bestshot_file])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["scores"] == "replication"
        assert doc["k"] == 2
        assert len(doc["selected"]) == 2
        assert set(doc["selected"]) <= {"ann", "bob", "cat", "dan"}

    def test_oracle_ratio(self, capsys, bestshot_file):
        code, out, _ = run(capsys, ["select", bestshot_file, "--oracle"])
        assert code == EXIT_OK
        doc = json.loads(out)
        ratio = doc["approximation"]["ratio"]
        assert doc["approximation"]["bound"] <= ratio <= 1.0 + 1e-12
        assert len(doc["oracle_selected"]) == 2

    def test_quantile_scores(self, capsys, bestshot_file):
        code, out, _ = run(capsys, ["select", bestshot_file, "--scores", "quantile:0.5"])
        assert code == EXIT_OK
        assert json.loads(out)["scores"] == "quantile:0.5"

    def test_mean_scores_and_explicit_k(self, capsys, bestshot_file):
        code, out, _ = run(capsys, ["select", bestshot_file, "--scores", "mean", "--k", "3"])
        assert code == EXIT_OK
        assert len(json.loads(out)["selected"]) == 3

    def test_unknown_scores_kind(self, capsys, bestshot_file):
        code, _, err = run(capsys, ["select", bestshot_file, "--scores", "median"])
        assert code == EXIT_VALIDATION
        assert "median" in err

    def test_bad_quantile_cut(self, capsys, bestshot_file):
        assert run(capsys, ["select", bestshot_file, "--scores", "quantile:x"])[0] == EXIT_VALIDATION
        assert run(capsys, ["select", bestshot_file, "--scores", "quantile:1.5"])[0] == EXIT_VALIDATION

    def test_k_beyond_agents(self, capsys, bestshot_file):
        code, _, err = run(capsys, ["select", bestshot_file, "--k", "5"])
        assert code == EXIT_VALIDATION

    @staticmethod
    def bad_number(tmp_path, doc, literal):
        # bob's largest value becomes the literal
        doc["projects"][0]["supports"][1][0][1] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        return str(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "true"])
    def test_bad_support_numbers_exit_2(self, capsys, tmp_path, bestshot_file, literal):
        path = self.bad_number(tmp_path, json.load(open(bestshot_file)), literal)
        code, _, err = run(capsys, ["select", path])
        assert code == EXIT_VALIDATION
        assert err.startswith("error: ") and "agent 'bob', project 'p0'" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "true"])
    def test_bad_support_numbers_exit_2_entry_list(self, capsys, tmp_path, bestshot_file, literal):
        # the same file in the entry-list layout is refused for its layout,
        # before its numbers are read
        doc = entry_list(json.load(open(bestshot_file)))
        doc["distributions"][1]["support"][1][0] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        assert run(capsys, ["select", str(path)]) == (EXIT_VALIDATION, "", f"error: {ENTRY_LIST_REFUSED}\n")

    def test_multi_project_needs_project(self, capsys, welfare_file):
        code, _, err = run(capsys, ["select", welfare_file])
        assert code == EXIT_VALIDATION
        assert "--project" in err

    def test_project_by_name_and_index(self, capsys, welfare_file):
        code, out, _ = run(capsys, ["select", welfare_file, "--project", "ui"])
        assert code == EXIT_OK
        assert json.loads(out)["project"] == "ui"
        code, out, _ = run(capsys, ["select", welfare_file, "--project", "0"])
        assert code == EXIT_OK
        assert json.loads(out)["project"] == "api"

    def test_unknown_project(self, capsys, welfare_file):
        assert run(capsys, ["select", welfare_file, "--project", "nope"])[0] == EXIT_VALIDATION
        assert run(capsys, ["select", welfare_file, "--project", "9"])[0] == EXIT_VALIDATION

    def test_out_file(self, capsys, tmp_path, bestshot_file):
        dest = tmp_path / "report.json"
        code, out, _ = run(capsys, ["select", bestshot_file, "--out", str(dest)])
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(dest.read_text())["k"] == 2

    def test_objective_provenance(self, capsys, monkeypatch, bestshot_file):
        code, out, _ = run(capsys, ["select", bestshot_file, "--oracle"])
        assert code == EXIT_OK
        doc = json.loads(out)
        for side in ("result", "oracle"):
            (est,) = doc[side]["per_project"]
            assert est == {"value": doc[side]["total"], "method": "exact_best_shot",
                           "samples": 0, "std_error": 0.0}
        # past the budget the chosen team's objective is sampled
        monkeypatch.setenv("TESTSCORE_BUDGET", "3")
        code, out, _ = run(capsys, ["select", bestshot_file])
        assert code == EXIT_OK
        (est,) = json.loads(out)["result"]["per_project"]
        assert est["method"] == "monte_carlo"
        assert est["samples"] == 200_000
        assert est["std_error"] > 0

    def test_budget_exhaustion_exits_3(self, capsys, monkeypatch, bestshot_file):
        monkeypatch.setenv("TESTSCORE_BUDGET", "3")
        code, _, err = run(capsys, ["select", bestshot_file, "--oracle"])
        assert code == EXIT_BUDGET
        assert "budget" in err
        # the error names the oracle and the instance shape
        assert err.startswith("error: brute_force_single subset enumeration budget exceeded: ")
        assert err.rstrip().endswith("> 3 (n=4, k=2, largest support 2)")


# bad supports for bob on ui in the welfare file, each with the rule it breaks
BAD_SUPPORTS = pytest.mark.parametrize(
    "support",
    [
        [[1.0, 0.5], [1.0, 0.5]],
        [[-1.0, 1.0]],
        [[math.nan, 1.0]],
        [[0.0, 0.0], [1.0, 1.0]],
        [[0.0, 0.5], [1.0, 0.4]],
        [],
    ],
    ids=["duplicate", "negative", "non-finite", "non-positive-prob", "bad-sum", "empty"],
)


class TestAssign:
    def assign_names_the_pair(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # json.dumps writes NaN as the NaN literal
        code, _, err = run(capsys, ["assign", str(path)])
        assert code == EXIT_VALIDATION
        assert err.startswith("error: distribution for agent 'bob', project 'ui': ")

    @BAD_SUPPORTS
    def test_bad_support_names_the_pair(self, capsys, tmp_path, welfare_file, support):
        doc = json.load(open(welfare_file))
        assert doc["agents"][1] == "bob" and doc["projects"][1]["name"] == "ui"
        doc["projects"][1]["supports"][1] = [[v for v, _ in support], [p for _, p in support]]
        self.assign_names_the_pair(capsys, tmp_path, doc)

    @BAD_SUPPORTS
    def test_bad_support_names_the_pair_entry_list(self, capsys, tmp_path, welfare_file, support):
        # the same bad support in the entry-list layout is refused for its
        # layout, before the support is read
        doc = entry_list(json.load(open(welfare_file)))
        entry = doc["distributions"][3]
        assert (entry["agent"], entry["project"]) == ("bob", "ui")
        entry["support"] = support
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, ["assign", str(path)]) == (EXIT_VALIDATION, "", f"error: {ENTRY_LIST_REFUSED}\n")

    def test_oracle_budget_exhaustion_names_the_dp(self, capsys, monkeypatch, welfare_file):
        # the greedy's table and objectives fall back to Monte Carlo; the
        # oracle's 6 DP transitions do not fit
        monkeypatch.setenv("TESTSCORE_BUDGET", "5")
        code, out, err = run(capsys, ["assign", welfare_file, "--oracle"])
        assert code == EXIT_BUDGET
        assert out == ""
        assert err == (
            "error: brute_force_welfare assignment DP budget exceeded: 6 > 5 "
            "(n=3, cardinalities (1, 2), largest support 2)\n"
        )

    def test_oracle_takes_one_dp_pass(self, capsys, monkeypatch, welfare_file):
        calls = []
        real = optimize._maximize_assignment

        def spy(scn, objectives, oracle):
            calls.append((len(objectives), oracle))
            return real(scn, objectives, oracle)

        monkeypatch.setattr(optimize, "_maximize_assignment", spy)
        assert run(capsys, ["assign", welfare_file, "--oracle"])[0] == EXIT_OK
        assert calls == [(1, "brute_force_welfare")]

    def test_happy_path(self, capsys, welfare_file):
        code, out, _ = run(capsys, ["assign", welfare_file])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["tie"] == "det"
        assert len(doc["assignment"]["api"]) == 1
        assert len(doc["assignment"]["ui"]) == 2
        names = doc["assignment"]["api"] + doc["assignment"]["ui"]
        assert len(set(names)) == 3

    def test_oracle_bound(self, capsys, welfare_file):
        code, out, _ = run(capsys, ["assign", welfare_file, "--oracle"])
        assert code == EXIT_OK
        doc = json.loads(out)
        approx = doc["approximation"]
        assert approx["bound"] - 1e-12 <= approx["ratio"] <= 1.0 + 1e-12

    def test_random_ties_are_seeded(self, capsys, welfare_file):
        a = run(capsys, ["assign", welfare_file, "--tie", "random", "--seed", "5"])
        b = run(capsys, ["assign", welfare_file, "--tie", "random", "--seed", "5"])
        assert a == b

    def test_single_project_matches_select(self, capsys, bestshot_file):
        code, out, _ = run(capsys, ["assign", bestshot_file])
        assert code == EXIT_OK
        assigned = set(json.loads(out)["assignment"]["p0"])
        code, out, _ = run(capsys, ["select", bestshot_file])
        assert code == EXIT_OK
        assert set(json.loads(out)["selected"]) == assigned


class TestCheck:
    @pytest.mark.parametrize(
        "suite,trials",
        [("submodularity", "6"), ("bsp", "50"), ("sketch", "5"), ("goodness", "5")],
    )
    def test_suites_pass(self, capsys, suite, trials):
        code, out, _ = run(capsys, ["check", "--suite", suite, "--trials", trials])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["suite"] == suite

    def test_bsp_reports_counterexample(self, capsys):
        code, out, _ = run(capsys, ["check", "--suite", "bsp", "--trials", "10"])
        assert code == EXIT_OK
        fixture = json.loads(out)["top_r_counterexample"]
        assert fixture["violates_as_expected"] is True
        assert fixture["lhs"] == 3.0 and fixture["rhs"] == 2.0

    def test_property_failure_exits_4(self, capsys, monkeypatch):
        monkeypatch.setitem(
            cli._SUITES, "bsp", (lambda seed, trials: {"suite": "bsp", "ok": False}, 1, 1)
        )
        assert run(capsys, ["check", "--suite", "bsp"])[0] == EXIT_PROPERTY

    def test_adversarial_suite_reports_every_instance(self, capsys):
        code, out, _ = run(capsys, ["check", "--suite", "adversarial"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ok"] is True
        expected = [asdict(validate_instance(gen())) for gen in GENERATORS.values()]
        assert doc["instances"] == json.loads(json.dumps(expected))

    # each side's slack from the witness's u, v and team size t
    SLACK = {
        "strong_lower": lambda u, v, t: u - v / (2.0 * (math.log(t) + 1.0)),
        "strong_upper": lambda u, v, t: 6.0 * v - u,
        "goodness_lower": lambda u, v, t: u - (1.0 - 1.0 / math.e) * v,
        "goodness_upper": lambda u, v, t: 4.0 * v - u,
    }

    @pytest.mark.parametrize("suite,prefix", [("sketch", "strong"), ("goodness", "goodness")])
    @pytest.mark.parametrize("scale,side", [(10.0, "upper"), (0.0, "lower")])
    def test_broken_bracket_dumps_its_witness(
        self, capsys, monkeypatch, suite, prefix, scale, side
    ):
        real = sketch.team_values
        monkeypatch.setattr(
            sketch, "team_values", lambda scn, j, teams: scale * real(scn, j, teams)
        )
        code, out, _ = run(capsys, ["check", "--suite", suite, "--trials", "2"])
        assert code == EXIT_PROPERTY
        doc = json.loads(out)
        assert doc["ok"] is False
        assert [f["trial"] for f in doc["failures"]] == [0, 1]
        for failure in doc["failures"]:
            w = failure["witness"]
            assert set(w) == {"bound", "slack", "witness_set", "u", "v"}
            assert w["bound"] == f"{prefix}_{side}"
            assert w["slack"] < -1e-9
            scn = random_bsp_scenario(RngSpec(seed=7).generator(failure["trial"]))
            assert w["u"] == scale * project_utility(scn, 0, w["witness_set"]).value
            slack = self.SLACK[w["bound"]](w["u"], w["v"], len(w["witness_set"]))
            assert w["slack"] == pytest.approx(slack, rel=1e-12, abs=1e-12)

    def test_submodularity_failure_lists_the_witness(self, capsys, monkeypatch):
        # |S|^2 is monotone but supermodular: adding agent 1 to {0} gains 3
        # where adding it to {} gains 1
        monkeypatch.setattr(
            utility, "team_values", lambda scn, j, teams: [float(teams.shape[1] ** 2)] * len(teams)
        )
        code, out, _ = run(capsys, ["check", "--suite", "submodularity", "--trials", "2"])
        assert code == EXIT_PROPERTY
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["failures"] == [{"trial": t, "witness": [[], [0], 1]} for t in range(2)]

    def test_bad_trials(self, capsys):
        assert run(capsys, ["check", "--suite", "bsp", "--trials", "0"])[0] == EXIT_VALIDATION

    @pytest.mark.parametrize("suite", ["submodularity", "bsp", "sketch", "goodness"])
    def test_huge_trial_count_exits_3_before_any_trial(self, capsys, monkeypatch, suite):
        monkeypatch.delenv("TESTSCORE_BUDGET", raising=False)
        work = cli._SUITES[suite][2]
        monkeypatch.setitem(
            cli._SUITES, suite, (lambda seed, trials: pytest.fail("a trial ran"), 1, work)
        )
        trials = 99999999999999999999
        code, out, err = run(capsys, ["check", "--suite", suite, "--trials", str(trials)])
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == (
            f"error: check --suite {suite} budget exceeded: {trials * work} > {DEFAULT_BUDGET} "
            f"({trials} trials x {work} per trial)\n"
        )

    @pytest.mark.parametrize("suite", sorted(cli._SUITES))
    def test_default_trial_counts_fit_the_default_budget(self, capsys, monkeypatch, suite):
        monkeypatch.delenv("TESTSCORE_BUDGET", raising=False)
        _, default, work = cli._SUITES[suite]
        seen = []
        monkeypatch.setitem(
            cli._SUITES, suite, (lambda seed, trials: seen.append(trials) or {"ok": True}, default, work)
        )
        assert run(capsys, ["check", "--suite", suite])[0] == EXIT_OK
        assert seen == [default]

    def test_trial_price_boundary(self, capsys, monkeypatch):
        # 10^4 bsp trials fit a budget of exactly 10^4 times their bound
        work = cli._SUITES["bsp"][2]
        monkeypatch.setenv("TESTSCORE_BUDGET", str(10_000 * work))
        monkeypatch.setitem(cli._SUITES, "bsp", (lambda seed, trials: {"ok": True}, 1, work))
        assert run(capsys, ["check", "--suite", "bsp", "--trials", "10000"])[0] == EXIT_OK
        assert run(capsys, ["check", "--suite", "bsp", "--trials", "10001"])[0] == EXIT_BUDGET

    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    def test_adversarial_rejects_seed_and_trials(self, capsys, monkeypatch, flag):
        # the bundled instances are fixed, so either flag would go unread
        monkeypatch.setitem(
            cli._SUITES, "adversarial", (lambda seed, trials: pytest.fail("a suite ran"), 1, 0)
        )
        code, out, err = run(capsys, ["check", "--suite", "adversarial", flag, "3"])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"error: check --suite adversarial runs fixed instances and takes no {flag}\n"
        assert "Traceback" not in err

    def test_seed_defaults_to_7(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setitem(
            cli._SUITES, "bsp", (lambda seed, trials: seen.append(seed) or {"ok": True}, 1, 1)
        )
        assert run(capsys, ["check", "--suite", "bsp"])[0] == EXIT_OK
        assert seen == [7]


    def test_unknown_suite(self, capsys):
        assert run(capsys, ["check", "--suite", "nope"])[0] == EXIT_USAGE


class TestIngest:
    CSV = "coder_id,task_id,rating\n" + "".join(
        f"c{i},t{j},{60 + 5 * i}\n" for i in range(3) for j in range(4)
    )

    def test_csv_to_scenario(self, capsys, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text(self.CSV)
        code, out, err = run(capsys, ["ingest", str(src), "--min-solutions", "4"])
        assert code == EXIT_OK
        loaded = scenario_from_dict(json.loads(out))
        assert loaded.agent_names == ("c0", "c1", "c2")
        assert loaded.scenario.value_fns[0].kind == "best_shot"
        assert "kept 3 coders" in err

    def test_min_solutions_filter(self, capsys, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text(self.CSV + "extra,t0,50\n")
        code, out, err = run(capsys, ["ingest", str(src), "--min-solutions", "4"])
        assert code == EXIT_OK
        assert "extra" not in json.loads(out)["agents"]
        assert "from 4 total" in err

    def test_sample_flag(self, capsys):
        code, out, err = run(capsys, ["ingest", "--sample"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["agents"]) >= 20
        assert "kept" in err

    def test_malformed_row_number(self, capsys, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text("coder_id,task_id,rating\nc0,t0,80\nc0,t1,banana\n")
        code, _, err = run(capsys, ["ingest", str(src)])
        assert code == EXIT_VALIDATION
        assert "row 3" in err

    def test_source_is_required_and_exclusive(self, capsys, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text(self.CSV)
        assert run(capsys, ["ingest"])[0] == EXIT_USAGE
        assert run(capsys, ["ingest", str(src), "--sample"])[0] == EXIT_USAGE

    def test_missing_file(self, capsys, tmp_path):
        assert run(capsys, ["ingest", str(tmp_path / "nope.csv")])[0] == EXIT_USAGE


class TestExperiment:
    def rows_of(self, text):
        return list(csv.reader(io.StringIO(text)))

    def test_csv_shape(self, capsys, bestshot_file):
        code, out, _ = run(
            capsys,
            ["experiment", bestshot_file, "--n", "3", "--k", "2,3", "--trials", "4"],
        )
        assert code == EXIT_OK
        rows = self.rows_of(out)
        assert rows[0] == ["trial", "k", "greedy", "opt", "ratio"]
        assert len(rows) == 1 + 4 * 2 + 2 * 2 + 2
        summary_labels = {r[0] for r in rows[9:]}
        assert summary_labels == {"mean", "min"}
        assert rows[-1][1] == "all"

    def test_k_equal_n_means_ratio_one(self, capsys, bestshot_file):
        code, out, _ = run(
            capsys,
            ["experiment", bestshot_file, "--n", "3", "--k", "3", "--trials", "5"],
        )
        assert code == EXIT_OK
        for row in self.rows_of(out)[1:6]:
            assert row[4] == "1.0"

    def test_same_seed_is_bit_identical(self, capsys, tmp_path, bestshot_file):
        args = ["experiment", bestshot_file, "--n", "3", "--k", "2", "--trials", "6",
                "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, args + ["--out", str(a)])[0] == EXIT_OK
        assert run(capsys, args + ["--out", str(b)])[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a.csv", "b.csv", "bestshot.json"]

    def test_sample_smoke(self, capsys):
        code, out, _ = run(
            capsys, ["experiment", "--sample", "--n", "4", "--k", "2", "--trials", "3"]
        )
        assert code == EXIT_OK
        rows = self.rows_of(out)
        assert len(rows) == 1 + 3 + 2 + 2
        for row in rows[1:4]:
            assert 0.0 < float(row[4]) <= 1.0 + 1e-12

    def test_validation_failures(self, capsys, bestshot_file, welfare_file):
        # every other flag valid, so that each case stops at its own check
        cases = [
            (bestshot_file, ["--n", "3", "--k", "0"], "bad --k list '0' (distinct sizes >= 1)"),
            (bestshot_file, ["--n", "3", "--k", "abc"], "bad --k list 'abc'"),
            (bestshot_file, ["--n", "3", "--k", "2,2"], "bad --k list '2,2' (distinct sizes >= 1)"),
            (bestshot_file, ["--n", "9", "--k", "2"], "--n 9 exceeds the 4 available agents"),
            (bestshot_file, ["--n", "2", "--k", "3"], "--k 3 exceeds --n 2"),
            (bestshot_file, ["--n", "3", "--k", "2", "--trials", "0"], "--trials must be >= 1, got 0"),
            (welfare_file, ["--n", "3", "--k", "2"], "experiment needs a single-project scenario"),
        ]
        for path, flags, message in cases:
            argv = ["experiment", path] + flags
            assert run(capsys, argv)[::2] == (EXIT_VALIDATION, f"error: {message}\n"), argv

    def test_jobs_is_no_longer_a_flag(self, capsys, bestshot_file):
        argv = ["experiment", bestshot_file, "--n", "3", "--k", "2", "--jobs", "2"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert "unrecognized arguments: --jobs 2" in err

    @pytest.mark.parametrize(
        "g, extra, message",
        [
            (ValueFunction.best_shot(), ["--trials", "0"], "--trials must be >= 1, got 0"),
            (ValueFunction.ces(2.0), [], "experiment needs a best-shot scenario"),
        ],
        ids=["trials", "not-best-shot"],
    )
    def test_each_check_names_its_input(self, capsys, tmp_path, g, extra, message):
        # every other input valid, so that only the named check can fail
        path = tmp_path / "one.json"
        save_scenario(path, Scenario.single_project([coin(1.0)] * 3, g, 2))
        argv = ["experiment", str(path), "--n", "3", "--k", "2"] + extra
        assert run(capsys, argv)[::2] == (EXIT_VALIDATION, f"error: {message}\n")

    def test_n_below_one_names_n(self, capsys, bestshot_file):
        code, _, err = run(capsys, ["experiment", bestshot_file, "--n", "0"])
        assert code == EXIT_VALIDATION
        assert err == "error: --n must be >= 1, got 0\n"

    def test_budget_exhaustion_exits_3(self, capsys, monkeypatch, tmp_path, bestshot_file):
        # a budget of 24 covers the run's price, 2 trials x 2 team sizes x
        # C(4, 2) teams, and not the oracle's price at k = 2, so the first
        # trial stops before any row is written
        monkeypatch.setenv("TESTSCORE_BUDGET", "24")
        out = tmp_path / "experiment.csv"
        code, _, err = run(
            capsys,
            ["experiment", bestshot_file, "--n", "4", "--k", "2,3", "--trials", "2",
             "--out", str(out)],
        )
        assert code == EXIT_BUDGET
        assert err.startswith("error: brute_force_single subset enumeration budget exceeded: ")
        assert err.rstrip().endswith("> 24 (n=4, k=2, largest support 2)")
        assert not out.exists()

    @pytest.mark.parametrize(
        "budget, flags, message",
        [
            ("23", ["--n", "4", "--k", "2,3", "--trials", "2"],
             "23 (2 trials x 2 team sizes x 6 teams per oracle)"),
            (None, ["--trials", "99999999999999999999"],
             "10000000 (99999999999999999999 trials x 3 team sizes x 210 teams per oracle)"),
        ],
        ids=["past-the-budget", "past-any-budget"],
    )
    def test_trials_are_priced_before_the_first(
        self, capsys, monkeypatch, tmp_path, bestshot_file, budget, flags, message
    ):
        if budget is not None:
            monkeypatch.setenv("TESTSCORE_BUDGET", budget)
        monkeypatch.setattr(cli, "_experiment_trial", lambda packed: pytest.fail("a trial ran"))
        out = tmp_path / "experiment.csv"
        source = [bestshot_file] if budget is not None else ["--sample"]
        code, printed, err = run(capsys, ["experiment"] + source + flags + ["--out", str(out)])
        assert (code, printed) == (EXIT_BUDGET, "")
        assert err.startswith("error: experiment budget exceeded: ")
        assert err.endswith(f" > {message}\n") and err.count("\n") == 1
        assert not out.exists()

    @staticmethod
    def stub_ratio(t):
        return ((t * 2654435761) % 1000003) / 1000003 + 0.5

    def stub_trial(self, packed):
        _scn, _seed, t, _n, ks = packed
        return [(t, ks[0], 1.0, 2.0, self.stub_ratio(t))]

    def test_memory_stays_flat(self, capsys, monkeypatch, tmp_path):
        # with the trial stubbed out, what is left is the driver: it writes
        # each row as its trial returns it and keeps two float ratios per row
        monkeypatch.setattr(cli, "_experiment_trial", self.stub_trial)
        peaks = {}
        for trials in (10**3, 10**5):
            out = tmp_path / f"{trials}.csv"
            argv = ["experiment", "--sample", "--k", "2", "--trials", str(trials), "--out", str(out)]
            tracemalloc.start()
            try:
                assert run(capsys, argv)[0] == EXIT_OK
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            ratios = [self.stub_ratio(t) for t in range(trials)]
            summary = [
                [label, key, "", "", repr(float(reduce(ratios)))]
                for key in ("2", "all")
                for label, reduce in (("mean", np.mean), ("min", np.min))
            ]
            rows = self.rows_of(out.read_text())
            assert len(rows) == 1 + trials + 4
            assert rows[-4:] == summary
        # rows are not held: a kept row tuple would take about 300 bytes
        assert peaks[10**5] <= 2 * peaks[10**3], peaks
        assert peaks[10**5] - peaks[10**3] <= 24 * (10**5 - 10**3), peaks

    def test_failed_run_leaves_no_file(self, capsys, monkeypatch, tmp_path, bestshot_file):
        def trial(packed):
            if packed[2] == 1:
                raise BudgetExceededError(2, 1, "stub trial")
            return self.stub_trial(packed)

        monkeypatch.setattr(cli, "_experiment_trial", trial)
        out = tmp_path / "experiment.csv"
        argv = ["experiment", bestshot_file, "--n", "3", "--k", "2", "--trials", "3",
                "--out", str(out)]
        assert run(capsys, argv)[::2] == (EXIT_BUDGET, "error: stub trial budget exceeded: 2 > 1\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "bestshot.json"]
        out.write_bytes(b"an older run\n")
        assert run(capsys, argv)[0] == EXIT_BUDGET
        assert out.read_bytes() == b"an older run\n"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "bestshot.json", out]
        # on stdout the rows of the trials that ran are already out
        code, printed, _ = run(capsys, argv[:-2])
        assert code == EXIT_BUDGET
        assert self.rows_of(printed) == [
            ["trial", "k", "greedy", "opt", "ratio"], ["0", "2", "1.0", "2.0", repr(self.stub_ratio(0))]
        ]

    def test_source_exclusive(self, capsys, bestshot_file):
        assert run(capsys, ["experiment", bestshot_file, "--sample"])[0] == EXIT_USAGE
        assert run(capsys, ["experiment"])[0] == EXIT_USAGE


class TestWorstcase:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_emits_instance(self, capsys, name):
        code, out, _ = run(capsys, ["worstcase", name])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["name"] == name
        assert {"params", "citation", "expected", "scenario"} <= set(doc)
        assert "validation" not in doc

    def test_run_validates(self, capsys):
        code, out, _ = run(capsys, ["worstcase", "mean_bestshot", "--run"])
        assert code == EXIT_OK
        assert json.loads(out)["validation"]["ok"] is True

    def test_run_with_params(self, capsys):
        code, out, _ = run(capsys, ["worstcase", "welfare_ex1", "--r", "2", "--run"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["params"] == {"r": 2}
        assert doc["validation"]["ok"] is True

    def test_welfare_budget_error_names_the_joint_pass(self, capsys, monkeypatch):
        # the exact optimum and the min-sketch baseline share one DP pass,
        # priced once under both names
        monkeypatch.setenv("TESTSCORE_BUDGET", "100")
        code, out, err = run(capsys, ["worstcase", "welfare_ex1", "--run"])
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == (
            "error: brute_force_welfare+baseline_min_sketch_welfare assignment DP budget "
            "exceeded: 1805440 > 100 (n=16, cardinalities (4, 4, 4, 4), largest support 1)\n"
        )

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, ["worstcase", "nope"])
        assert code == EXIT_USAGE
        assert "welfare_ex1" in err  # choices are listed

    def test_inapplicable_flag(self, capsys):
        code, _, err = run(capsys, ["worstcase", "welfare_ex1", "--k", "3"])
        assert code == EXIT_USAGE
        assert "--k does not apply" in err
        assert "--r" in err

    @pytest.mark.parametrize(
        "argv, params",
        [
            (["mean_bestshot", "--k", "4"], {"k": 4}),
            (["quantile_linear", "--k", "3", "--p", "0.5"], {"k": 3}),
            (["ces_mean", "--k", "2"], {"k": 2}),
            (["quantile_ces", "--n", "64"], {"n": 64}),
            (["quantile_ces", "--k", "2", "--n", "6"], {"k": 2, "n": 6}),
        ],
    )
    def test_integer_flags(self, capsys, argv, params):
        # --k and --n parse as ints, which have no is_integer before Python 3.12
        code, out, err = run(capsys, ["worstcase", *argv, "--run"])
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert {key: doc["params"][key] for key in params} == params
        assert doc["validation"]["ok"] is True

    @pytest.mark.parametrize(
        "argv, shape",
        [
            (["welfare_ex2", "--r", "100000000000"], "200000000000 agents x 100000000001 projects x 1 atoms"),
            (["welfare_ex1", "--r", "1000"], "1000000 agents x 1000 projects x 1 atoms"),
            (["mean_bestshot", "--k", "100000000"], "200000000 agents x 1 projects x 2 atoms"),
            (["quantile_ces", "--n", "10000000"], "10000000 agents x 1 projects x 2 atoms"),
        ],
    )
    def test_oversized_instance_exits_3_before_it_is_built(self, capsys, argv, shape):
        code, out, err = run(capsys, ["worstcase", *argv])
        assert (code, out) == (EXIT_BUDGET, "")
        assert err.startswith(f"error: {argv[0]} instance budget exceeded: ")
        assert err.endswith(f" > 10000000 ({shape})\n")

    @pytest.mark.parametrize("name, flag", [("quantile_linear", "--k"), ("quantile_ces", "--n")])
    def test_integer_flag_past_float_range_exits_3(self, capsys, name, flag):
        # an int flag needs no integrality check, and the instance is priced
        # before any float arithmetic on it
        code, out, err = run(capsys, ["worstcase", name, flag, "9" * 400])
        assert (code, out) == (EXIT_BUDGET, "")
        assert err.startswith(f"error: {name} instance budget exceeded: ")

    def test_integer_params_enforced(self, capsys):
        assert run(capsys, ["worstcase", "welfare_ex1", "--r", "2.5"])[0] == EXIT_USAGE
        assert run(capsys, ["worstcase", "mean_bestshot", "--k", "2.5"])[0] == EXIT_USAGE
        assert run(capsys, ["worstcase", "welfare_ex2", "--r", "two"])[0] == EXIT_USAGE

    def test_validation_mismatch_exits_4(self, capsys, monkeypatch):
        fake = InstanceReport(name="welfare_ex1", ok=False, rows=())
        monkeypatch.setattr(cli, "validate_instance", lambda inst: fake)
        code, out, _ = run(capsys, ["worstcase", "welfare_ex1", "--r", "2", "--run"])
        assert code == EXIT_PROPERTY
        assert json.loads(out)["validation"] == {"name": "welfare_ex1", "ok": False, "rows": []}


class TestBadParametersExit2:
    def check(self, capsys, argv, named):
        code, _, err = run(capsys, argv)
        assert code == EXIT_VALIDATION
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and named in err

    @pytest.mark.parametrize("tag", ["ces:nan", "ces:inf", "success_prob:clamp_linear:inf"])
    def test_non_finite_value_fn_tag(self, capsys, tmp_path, bestshot_file, tag):
        doc = json.loads(open(bestshot_file).read())
        doc["projects"][0]["value_fn"] = tag
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        self.check(capsys, ["select", str(path), "--oracle"], tag)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["worstcase", "ces_mean", "--r", "0.5"], "0.5"),
            (["worstcase", "quantile_ces", "--r", "nan", "--run"], "nan"),
        ],
    )
    def test_generator_parameter(self, capsys, argv, named):
        self.check(capsys, argv, named)

    @pytest.mark.parametrize("flag", ["r", "a", "b", "c", "p", "eps", "theta"])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_float_flag(self, capsys, monkeypatch, flag, raw):
        # rejected as argparse parses it, for any generator, before one runs
        for name in GENERATORS:
            monkeypatch.setitem(GENERATORS, name, lambda **_: pytest.fail("a generator ran"))
        code, out, err = run(capsys, ["worstcase", "welfare_ex2", f"--{flag}={raw}"])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"error: --{flag} must be finite, got {raw}\n"

    @staticmethod
    def ces_file(tmp_path, r):
        # agent a pays 4.5 or 10, b and c a point mass at 1: at ces:400 a
        # team of two can sum 2 * 10^400, past the float range
        doc = {
            "agents": ["a", "b", "c"],
            "projects": [{"name": "p0", "value_fn": f"ces:{r}", "k": 2, "supports": [
                [[4.5, 10.0], [0.5, 0.5]],
                [[1.0], [1.0]],
                [[1.0], [1.0]],
            ]}],
        }
        path = tmp_path / f"ces{r}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "command", [["select"], ["select", "--oracle"], ["assign"]], ids=" ".join
    )
    def test_team_sum_past_the_float_range(self, capsys, tmp_path, command):
        path = self.ces_file(tmp_path, "400.0")
        self.check(capsys, command[:1] + [path] + command[1:], "project 0: a team of 2")

    def test_generated_team_sum_past_the_float_range(self, capsys):
        argv = ["worstcase", "quantile_ces", "--r", "1e308", "--run"]
        self.check(capsys, argv, "project 0: a team of 16")

    def test_team_sum_within_the_float_range(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["select", self.ces_file(tmp_path, "300.0"), "--oracle"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["oracle_selected"] == ["a", "b"]
        assert doc["oracle"]["total"] == pytest.approx(7.25, rel=1e-15)


class TestEntryListRefused:
    """A file in the entry-list layout, or with both "distributions" and
    project "supports", exits 2 under every command that loads a scenario,
    with one line naming the layout and nothing on stdout."""

    @pytest.mark.parametrize("command", ["select", "assign", "experiment"])
    @pytest.mark.parametrize("both", [False, True], ids=["entry-list", "both-layouts"])
    def test_exits_2_with_the_layout_message(self, capsys, tmp_path, welfare_file, command, both):
        doc = json.load(open(welfare_file))
        listed = entry_list(doc)
        if both:
            doc["distributions"] = listed["distributions"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc if both else listed))
        assert run(capsys, [command, str(path)]) == (EXIT_VALIDATION, "", f"error: {ENTRY_LIST_REFUSED}\n")


class TestLoadedFilesBuildNoDistribution:
    """Commands on a loaded file read its packed per-project stores only:
    no Distribution object is built, checked or trusted."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = []
        trusted, post_init = Distribution._trusted.__func__, Distribution.__post_init__

        def counting_trusted(cls, *args):
            count.append(args)
            return trusted(cls, *args)

        def counting_post_init(self):
            count.append(self)
            post_init(self)

        monkeypatch.setattr(Distribution, "_trusted", classmethod(counting_trusted))
        monkeypatch.setattr(Distribution, "__post_init__", counting_post_init)
        return count

    @staticmethod
    def saved(tmp_path, fns, ks):
        supports = [
            Distribution.point(1.25),
            coin(3.0, 0.4),
            Distribution.from_pairs(((0.5, 0.2), (1.0, 0.3), (2.0, 0.5))),
            coin(2.0, 0.9),
            Distribution.from_pairs(((0.25, 0.5), (0.75, 0.5))),
        ]
        dists = tuple(tuple(supports[(i + j) % 5] for j in range(len(fns))) for i in range(5))
        path = tmp_path / "scenario.json"
        save_scenario(path, Scenario(dists=dists, value_fns=tuple(fns), cardinalities=ks))
        return str(path)

    @pytest.mark.parametrize("factory", CATALOGUE_POOL, ids=lambda f: value_fn_tag(f()))
    def test_select_oracle(self, capsys, tmp_path, built, factory):
        path = self.saved(tmp_path, [factory()], (3,))
        built.clear()
        for k in ("1", "2", "3"):
            assert run(capsys, ["select", path, "--k", k, "--oracle"])[0] == EXIT_OK
        assert built == []

    def test_assign_oracle(self, capsys, tmp_path, built):
        path = self.saved(tmp_path, [factory() for factory in CATALOGUE_POOL[3:6]], (1, 2, 1))
        built.clear()
        assert run(capsys, ["assign", path])[0] == EXIT_OK
        assert run(capsys, ["assign", path, "--oracle"])[0] == EXIT_OK
        assert built == []

    @pytest.mark.parametrize(
        "command, fns, ks",
        [
            ("select", [ValueFunction.ces(2.0)], (2,)),
            ("assign", [ValueFunction.ces(2.0), ValueFunction.best_shot()], (2, 1)),
        ],
        ids=["select", "assign"],
    )
    def test_monte_carlo_objective(self, capsys, monkeypatch, tmp_path, built, command, fns, ks):
        path = self.saved(tmp_path, fns, ks)
        built.clear()
        monkeypatch.setenv("TESTSCORE_BUDGET", "3")
        code, out, _ = run(capsys, [command, path])
        assert code == EXIT_OK
        assert "monte_carlo" in {est["method"] for est in json.loads(out)["result"]["per_project"]}
        assert built == []

    def test_experiment_trials(self, monkeypatch, tmp_path, built):
        # a trial's team pool is a slice of the scenario's store: no trial
        # builds a Distribution or packs a store
        packed, pack = [], ProjectStore.pack.__func__

        def counting_pack(cls, dists):
            packed.append(dists)
            return pack(cls, dists)

        monkeypatch.setattr(ProjectStore, "pack", classmethod(counting_pack))
        loaded = load_scenario(self.saved(tmp_path, [ValueFunction.best_shot()], (3,))).scenario
        sample = ingest_ratings(read_ratings(data.sample_ratings_path())).scenario
        sample.store(0)  # built from Distribution objects, it packs its store on first use
        built.clear()
        packed.clear()
        for scn, n, ks in ((loaded, 4, [2, 3]), (sample, 10, [2, 3, 4])):
            for t in range(5):
                assert len(cli._experiment_trial((scn, 0, t, n, ks))) == len(ks)
        assert (built, packed) == ([], [])


class TestOutFiles:
    """``--out`` rewrites its file in place: it ends up holding the bytes a
    write to a fresh path holds, whatever it held before, and a failed
    write leaves none of the old bytes behind."""

    @pytest.mark.parametrize("command, scenario", [("select", "bestshot_file"), ("assign", "welfare_file")])
    def test_rewrite_over_a_longer_file(self, capsys, tmp_path, request, command, scenario):
        argv = [command, request.getfixturevalue(scenario), "--oracle"]
        code, printed, _ = run(capsys, argv)
        assert code == EXIT_OK
        fresh, old = tmp_path / "fresh.json", tmp_path / "old.json"
        old.write_text("x" * (3 * len(printed)))
        for dest in (fresh, old):
            assert run(capsys, argv + ["--out", str(dest)]) == (EXIT_OK, "", "")
        assert old.read_bytes() == fresh.read_bytes() == printed.encode()
        assert old.stat().st_mode == fresh.stat().st_mode

    def test_dev_null(self, capsys, bestshot_file):
        assert run(capsys, ["select", bestshot_file, "--out", os.devnull])[0] == EXIT_OK
        assert run(capsys, ["ingest", "--sample", "--out", os.devnull])[0] == EXIT_OK

    @pytest.mark.parametrize("command", [["select", "{scenario}"], ["ingest", "--sample"]])
    def test_unwritable_path_exits_1(self, capsys, tmp_path, bestshot_file, command):
        argv = [part.format(scenario=bestshot_file) for part in command]
        missing = tmp_path / "nope" / "report.json"
        assert run(capsys, argv + ["--out", str(missing)])[::2] == (
            EXIT_USAGE, f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        )
        assert run(capsys, argv + ["--out", str(tmp_path)])[::2] == (
            EXIT_USAGE, f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
        )

    def test_failed_write_leaves_no_old_bytes(self, capsys, monkeypatch, tmp_path, welfare_file):
        dest = tmp_path / "report.json"
        dest.write_text("old " * 4096)
        real, chunks = os.write, []

        def first_chunk_then_full(fd, data):
            if chunks:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            chunks.append(real(fd, data[:16]))
            return chunks[-1]

        monkeypatch.setattr(os, "write", first_chunk_then_full)
        code, _, err = run(capsys, ["assign", welfare_file, "--out", str(dest)])
        monkeypatch.undo()
        assert (code, err) == (EXIT_USAGE, "error: [Errno 28] No space left on device\n")
        assert chunks == [16] and dest.read_bytes() == b""


class TestMainPlumbing:
    def test_successive_calls_share_no_options(self, capsys, bestshot_file, welfare_file):
        # the parser is built once per process; one call's flags must not
        # carry over into the next
        code, out, _ = run(capsys, ["select", bestshot_file, "--k", "3", "--scores", "mean", "--oracle"])
        assert code == EXIT_OK
        first = json.loads(out)
        assert (first["k"], first["scores"]) == (3, "mean") and "oracle" in first
        code, out, _ = run(capsys, ["assign", welfare_file, "--tie", "random", "--seed", "4"])
        assert code == EXIT_OK
        assert json.loads(out)["tie"] == "random"
        code, out, _ = run(capsys, ["select", bestshot_file])
        assert code == EXIT_OK
        again = json.loads(out)
        assert (again["k"], again["scores"]) == (2, "replication") and "oracle" not in again
        code, out, _ = run(capsys, ["assign", welfare_file])
        assert json.loads(out)["tie"] == "det"
        assert run(capsys, ["check", "--suite", "bsp", "--trials", "2"])[0] == EXIT_OK
        code, out, _ = run(capsys, ["select", bestshot_file])
        assert json.loads(out) == again

    def test_no_command(self, capsys):
        assert run(capsys, [])[0] == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        assert run(capsys, ["--help"])[0] == EXIT_OK

    def test_unknown_flag(self, capsys, bestshot_file):
        assert run(capsys, ["select", bestshot_file, "--frobnicate"])[0] == EXIT_USAGE

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from testscore.cli import main; sys.exit(main(sys.argv[1:]))",
             "worstcase", "quantile_linear"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["name"] == "quantile_linear"

    def test_import_loads_no_process_pool(self):
        # every command runs in one process: importing the CLI brings in
        # neither concurrent.futures nor multiprocessing
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, testscore.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
