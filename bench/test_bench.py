"""Tests of the benchmark itself: ``python3 -m pytest bench``.

They run every workload on a few ops, check that a wrong answer and a
wrong environment are caught, and check the tracer's bookkeeping.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, env=None, cwd=ROOT, script=BENCH / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_each_workload_runs_clean_on_a_few_ops(workload):
    proc = _bench("--workload", workload, "--ops", "4", "--seed", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "experiment_sample", "--ops", "3", "--seed", "5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"]
    assert [*result["metrics"]] == [m["name"] for m in SPEC["per_layer"]]
    metrics = result["metrics"]
    assert metrics["optimize.brute_force_single.subsets"]["value"] == 3 * sum(
        math.comb(workloads.EXPERIMENT_N, k) for k in workloads.EXPERIMENT_KS
    )
    assert metrics["utility.exact_utility.calls"]["value"] == 0  # best shot never enumerates
    # a second traced run with the same seed must repeat the work counters
    again = _bench("--workload", "experiment_sample", "--ops", "3", "--seed", "5", "--trace", "1")
    assert again.returncode == 0, again.stderr
    assert "work counters" not in again.stderr


def test_benchmark_json_names_the_tracer_metrics():
    assert [m["name"] for m in SPEC["per_layer"]] == tracing.metric_names()
    assert all(m["unit"] == tracing.metric_unit(m["name"]) for m in SPEC["per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def _ops(name: str, n: int, tmp_path: Path, seed: int = 0):
    return workloads.WORKLOADS[name](seed, tmp_path)[:n]


def _recorded(name: str, n: int):
    return json.loads((BENCH / "answers" / f"{name}.json").read_text())["answers"][:n]


def test_a_corrupted_recorded_total_is_caught(tmp_path):
    ops = _ops("experiment_sample", 3, tmp_path)
    recorded = _recorded("experiment_sample", 3)
    assert run.timed_phase(ops, 0, 0, recorded).failed == 0
    bad = copy.deepcopy(recorded)
    bad[1]["rows"][0][1] *= 1 + 1e-7
    assert run.timed_phase(ops, 0, 0, bad).failed == 1


def test_a_corrupted_recorded_team_is_caught(tmp_path):
    ops = _ops("select_catalogue", 2, tmp_path)
    recorded = _recorded("select_catalogue", 2)
    bad = copy.deepcopy(recorded)
    bad[0]["selected"] = bad[0]["selected"][::-1]
    assert run.timed_phase(ops, 0, 0, recorded).failed == 0
    assert run.timed_phase(ops, 0, 0, bad).failed == 1


def test_diff_answers_tolerance():
    assert workloads.diff_answers({"t": 1.0}, {"t": 1.0 + 1e-12}) == []
    assert workloads.diff_answers({"t": 1.0}, {"t": 1.0 + 1e-8})
    assert workloads.diff_answers({"s": [1, 2]}, {"s": [2, 1]})
    assert workloads.diff_answers({"ok": True}, {"ok": 1})


@pytest.mark.parametrize("name", ["select_catalogue", "check_suites"])
def test_traced_self_times_fit_in_each_op(tmp_path, name):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = _ops(name, 6, tmp_path, seed=3)
        tracer.take()
        phase = run.timed_phase(ops, 0, 0, None, tracer)
    finally:
        tracer.uninstall()
    assert phase.failed == 0
    assert 0.0 < phase.worst_self_over_wall <= 1.0


def test_tracer_uninstall_restores_the_program():
    from testscore import cli, core, utility

    before = (cli.build_score_table, utility.project_utility, core.Distribution.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.build_score_table is not before[0]
    tracer.uninstall()
    assert (cli.build_score_table, utility.project_utility, core.Distribution.__init__) == before


def test_counters_repeat_within_a_process(tmp_path):
    views = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            ops = _ops("check_suites", 12, tmp_path, seed=11)
            tracer.take()
            phase = run.timed_phase(ops, 0, 0, None, tracer)
            views.append(tracing.counter_view(phase.parts[0]))
        finally:
            tracer.uninstall()
    assert views[0] == views[1]


def test_refuses_a_non_default_budget():
    env = dict(os.environ, TESTSCORE_BUDGET="1000")
    proc = _bench("--workload", "experiment_sample", "--ops", "1", env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "TESTSCORE_BUDGET" in proc.stderr


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench(
        "--workload", "experiment_sample", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "bench" / "run.py",
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _record(workload: str, values: dict[str, float]) -> str:
    metrics = {name: {"value": v, "unit": "x"} for name, v in values.items()}
    return json.dumps({"workload": workload, "result": {"metrics": metrics}})


def test_compare_marks_wide_spreads_unresolved(tmp_path, capsys):
    base = tmp_path / "base.jsonl"
    change = tmp_path / "change.jsonl"
    base.write_text("\n".join(_record("w", {"ops_per_s": v, "op_p50_ms": 10.0}) for v in (10, 11, 10.5, 10.2)))
    change.write_text("\n".join(_record("w", {"ops_per_s": v, "op_p50_ms": 20.0}) for v in (5, 15, 10, 9)))
    assert compare.main(str(base), str(change)) == 1  # p50 doubled: worse
    out = capsys.readouterr().out
    rows = {line.split()[1]: line for line in out.splitlines()[1:]}
    assert rows["ops_per_s"].endswith("unresolved")
    assert rows["op_p50_ms"].endswith("worse")
    assert "2.0000" in rows["op_p50_ms"]


def test_host_scale_comes_from_the_reference_runs_around_an_op():
    track = hostspeed.Track(timer=False)
    track.ends = [float(t) for t in range(1, 11)]
    track.durations = [hostspeed.REF_S] * 5 + [2 * hostspeed.REF_S] * 5
    # an op between the first two runs, where the reference took REF_S
    assert track.scale(1.5, 1.6) == pytest.approx(1.0)
    # one between the last two, where the host ran at half speed
    assert track.scale(8.5, 8.6) == pytest.approx(0.5)
    # a long op is scaled by every run during it as well
    assert track.scale(1.5, 8.6) == pytest.approx(9 / 13)
    assert track.median_scale() == pytest.approx(2 / 3)


def test_reference_time_is_left_out_of_an_op():
    with hostspeed.Track() as track:
        spent = track.spent
        c0 = track.clock()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * hostspeed.EVERY_S:
            pass
        op = track.clock() - c0
        busy = time.perf_counter() - t0
        spent = track.spent - spent
    # the interval timer ran the reference during the op, and its time is
    # not the op's (up to one reference run landing between two readings)
    assert len(track.durations) >= 4 and spent > 0
    assert op == pytest.approx(busy - spent, abs=5e-3)


def test_check_draws_match_the_fixed_shapes():
    reference = [("a", 4), ("b", 1), ("a", 30)]
    candidates = [("a", 25), ("b", 2), ("a", 5), ("b", 1), ("a", 3)]
    picked = workloads._matched(candidates, reference, lambda c: c[0], lambda c: c[1])
    assert picked == [("a", 5), ("b", 1), ("a", 25)]
    # a key with no candidate left falls back to the nearest work
    assert workloads._matched([("a", 2), ("a", 9)], [("c", 8)], lambda c: c[0], lambda c: c[1]) == [("a", 9)]
    assert workloads._team_outcomes([1, 2, 3], 2) == (1 + 2 + 3) + (2 + 3 + 6)
