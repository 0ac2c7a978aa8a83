"""Command-line interface.

Exit codes: 0 success, 1 usage, 2 validation, 3 enumeration budget,
4 property or expectation failure. The TESTSCORE_BUDGET environment
variable overrides the enumeration budget.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
from array import array
from dataclasses import asdict
from functools import cache, partial
from typing import Optional

import numpy as np

from .adversarial import (
    CATALOGUE_POOL,
    GENERATORS,
    random_bsp_scenario,
    random_single_scenario,
    validate_instance,
)
from .core import BudgetExceededError, RngSpec, Scenario, ValidationError, charge, enumeration_budget
from .optimize import (
    approximation_report,
    brute_force_single,
    brute_force_welfare,
    greedy_topk,
    greedy_welfare,
)
from .production import ValueFunction, bsp_check
from .scores import build_score_table
from .scenario_io import (
    LoadedScenario,
    ingest_ratings,
    load_scenario,
    read_ratings,
    save_scenario,
    scenario_to_dict,
    write_text,
)
from .sketch import verify_goodness_sandwich, verify_strong_sketch_bounds
from .utility import submodularity_check
from . import data

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_PROPERTY = 4


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _FlagError(Exception):
    """A flag value that parses but is rejected: exit 2, where argparse's
    own errors exit 1. Not a ValueError, which argparse would catch."""


def _finite_float(flag: str):
    """The argparse type of float flag ``--flag``: not a number is a usage
    error, as for ``float``; NaN and the infinities exit 2, naming the flag."""

    def parse(raw: str) -> float:
        value = float(raw)
        if not math.isfinite(value):
            raise _FlagError(f"--{flag} must be finite, got {raw}")
        return value

    parse.__name__ = "float"  # the type argparse names in its usage errors
    return parse


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
    else:
        write_text(out, text + "\n")


def _resolve_project(loaded: LoadedScenario, raw: Optional[str]) -> int:
    if raw is None:
        if loaded.scenario.n_projects != 1:
            raise ValidationError("--project is required for multi-project scenarios")
        return 0
    if raw in loaded.project_names:
        return loaded.project_index(raw)
    try:
        j = int(raw)
    except ValueError:
        raise ValidationError(f"unknown project {raw!r}") from None
    if not (0 <= j < loaded.scenario.n_projects):
        raise ValidationError(f"project index {j} out of range")
    return j


def _parse_scores(raw: str) -> tuple[str, Optional[float]]:
    if raw == "mean" or raw == "replication":
        return raw, None
    if raw.startswith("quantile:"):
        try:
            return "quantile", float(raw.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad quantile cut in {raw!r}") from None
    raise ValidationError(
        f"unknown --scores {raw!r} (use mean, quantile:<cut>, or replication)"
    )


def cmd_select(args) -> int:
    loaded = load_scenario(args.scenario)
    j = _resolve_project(loaded, args.project)
    scn = loaded.scenario
    k = args.k if args.k is not None else scn.cardinalities[j]
    kind, theta = _parse_scores(args.scores)
    # single-project view of project j's store with cardinality k, so score
    # tables and the oracle measure exactly the requested selection problem
    view = Scenario(None, (scn.value_fns[j],), (k,), stores=(scn.store(j),))
    # greedy_topk reads column k alone
    table = build_score_table(view, kind, max_r=k, theta=theta, columns=[(k, k)])
    # the oracle runs first: greedy reuses its objective when it picks the same team
    oracle = brute_force_single(view, 0, k) if args.oracle else None
    result = greedy_topk(view, 0, k, table, known=oracle)
    report = {
        "project": loaded.project_names[j],
        "scores": args.scores,
        "k": k,
        "selected": [loaded.agent_names[i] for i in result.assignment.sets[0]],
        "result": result.to_json(),
    }
    if oracle is not None:
        approx = approximation_report(view, result, oracle)
        report["oracle"] = oracle.to_json()
        report["oracle_selected"] = [
            loaded.agent_names[i] for i in oracle.assignment.sets[0]
        ]
        report["approximation"] = asdict(approx)
    _emit(json.dumps(report), args.out)
    return EXIT_OK


def cmd_assign(args) -> int:
    loaded = load_scenario(args.scenario)
    scn = loaded.scenario
    # greedy_welfare reads columns 1..k_j of project j
    columns = [(1, k) for k in scn.cardinalities]
    table = build_score_table(scn, "replication", max_r=max(scn.cardinalities), columns=columns)
    tie_rng = RngSpec(seed=args.seed) if args.tie == "random" else None
    result = greedy_welfare(scn, table, tie_rng=tie_rng)
    report = {
        "tie": args.tie,
        "assignment": {
            loaded.project_names[j]: [
                loaded.agent_names[i] for i in result.assignment.sets[j]
            ]
            for j in scn.projects
        },
        "result": result.to_json(),
    }
    if args.oracle:
        oracle = brute_force_welfare(scn)
        approx = approximation_report(scn, result, oracle)
        report["oracle"] = oracle.to_json()
        report["approximation"] = asdict(approx)
    _emit(json.dumps(report), args.out)
    return EXIT_OK


def _suite_submodularity(seed: int, trials: int) -> dict:
    details = []
    ok = True
    for t in range(trials):
        gen = RngSpec(seed=seed).generator(t)
        g = CATALOGUE_POOL[t % len(CATALOGUE_POOL)]()
        scn = random_single_scenario(gen, g, n=5, k=2)
        rep = submodularity_check(scn, 0, max_agents=5)
        ok = ok and rep.ok
        if not rep.ok:
            details.append({"trial": t, "witness": rep.witness})
    return {"suite": "submodularity", "trials": trials, "ok": ok, "failures": details}


def _suite_bsp(seed: int, trials: int) -> dict:
    from .production import ConcaveFn, UnitFn

    members = {
        "total_sqrt": ValueFunction.total(ConcaveFn("sqrt")),
        "best_shot": ValueFunction.best_shot(),
        "ces_2": ValueFunction.ces(2.0),
        "success_clamp": ValueFunction.success_prob(UnitFn("clamp_linear", 0.25)),
    }
    gen = RngSpec(seed=seed).generator(0)
    worst = {name: 0.0 for name in members}
    ok = True
    for name, g in members.items():
        for _ in range(trials):
            x = gen.uniform(0.0, 3.0, int(gen.integers(2, 7)))
            res = bsp_check(g, x.tolist())
            gap = abs(res.lhs - res.rhs)
            worst[name] = max(worst[name], gap)
            ok = ok and gap <= 1e-9
    # top-r is the catalogue's known non-member; (1,1,1) must break it
    fixture = bsp_check(ValueFunction.top_r(2), (1.0, 1.0, 1.0))
    fixture_ok = (not fixture.holds) and fixture.lhs == 3.0 and fixture.rhs == 2.0
    ok = ok and fixture_ok
    return {
        "suite": "bsp",
        "trials": trials,
        "ok": ok,
        "worst_equality_gap": worst,
        "top_r_counterexample": {
            "violates_as_expected": fixture_ok,
            "lhs": fixture.lhs,
            "rhs": fixture.rhs,
        },
    }


def _suite_bounds(name: str, verify, seed: int, trials: int) -> dict:
    # the sketch and goodness suites differ only in the verifier they run
    ok = True
    failures = []
    worst_lower = math.inf
    worst_upper = math.inf
    for t in range(trials):
        gen = RngSpec(seed=seed).generator(t)
        scn = random_bsp_scenario(gen)
        rep = verify(scn, 0, scn.cardinalities[0])
        worst_lower = min(worst_lower, rep.worst_lower_slack)
        worst_upper = min(worst_upper, rep.worst_upper_slack)
        if not rep.ok:
            ok = False
            failures.append({"trial": t, "witness": asdict(rep.witness)})
    return {
        "suite": name,
        "trials": trials,
        "ok": ok,
        "worst_lower_slack": worst_lower,
        "worst_upper_slack": worst_upper,
        "failures": failures,
    }


def _suite_adversarial(seed: int, trials: int) -> dict:
    del seed, trials  # the bundled instances are fixed; cmd_check rejects both flags
    reports = [validate_instance(gen()) for gen in GENERATORS.values()]
    return {
        "suite": "adversarial",
        "ok": all(r.ok for r in reports),
        "instances": [asdict(r) for r in reports],
    }


# suite: (runner, default trial count, a bound on one trial's work, which
# check prices times the trial count against the budget before any trial)
_SUITES = {
    # 5 agents with at most 3 atoms each: 4^5 = sum_S 3^|S| prices the 2^5
    # teams at the size of each one's joint support, and 6 * 3^5 the 3^5
    # pairs S <= T at 6 marginals each
    "submodularity": (_suite_submodularity, 50, 4**5 + 6 * 3**5),
    # 4 value functions, each evaluated 3 times on at most 6 coordinates
    "bsp": (_suite_bsp, 10_000, 4 * 3 * 6),
    # at most 7 agents with at most 3 atoms each: 4^7 = sum_S 3^|S| prices
    # every team at the size of its joint support; the teams checked have
    # at most 4 members and take 3,991 of it, leaving room for the 7 x 4
    # replication scores priced the same way, 7 * (3 + 9 + 27 + 81) = 840.
    # Goodness builds only the column k of those scores; its bound is kept
    # at the sketch suite's, which still covers them
    "sketch": (partial(_suite_bounds, "sketch", verify_strong_sketch_bounds), 200, 4**7),
    "goodness": (partial(_suite_bounds, "goodness", verify_goodness_sandwich), 200, 4**7),
    # the bundled instances are fixed and price their own oracles; they
    # take no seed and no trial count
    "adversarial": (_suite_adversarial, 1, 0),
}


def cmd_check(args) -> int:
    runner, default_trials, per_trial = _SUITES[args.suite]
    if args.suite == "adversarial":
        for flag, value in (("--seed", args.seed), ("--trials", args.trials)):
            if value is not None:
                raise ValidationError(f"check --suite adversarial runs fixed instances and takes no {flag}")
    trials = args.trials if args.trials is not None else default_trials
    if trials < 1:
        raise ValidationError(f"--trials must be >= 1, got {trials}")
    shape = f"{trials} trials x {per_trial} per trial"
    charge(trials * per_trial, enumeration_budget(), f"check --suite {args.suite}", shape)
    report = runner(7 if args.seed is None else args.seed, trials)
    _emit(json.dumps(report), args.out)
    return EXIT_OK if report["ok"] else EXIT_PROPERTY


def cmd_ingest(args) -> int:
    src = data.sample_ratings_path() if args.sample else args.ratings
    rows = read_ratings(src)
    loaded = ingest_ratings(rows, min_solutions=args.min_solutions)
    out = sys.stdout if args.out is None else args.out
    save_scenario(out, loaded.scenario, loaded.agent_names, loaded.project_names)
    print(
        f"kept {loaded.scenario.n_agents} coders with >= {args.min_solutions} "
        f"rated solutions (from {len(set(r[0] for r in rows))} total)",
        file=sys.stderr,
    )
    return EXIT_OK


def _experiment_trial(packed) -> list[tuple]:
    scn, seed, trial, n, ks = packed
    gen = RngSpec(seed=seed).generator(trial)
    chosen = sorted(int(i) for i in gen.choice(scn.n_agents, size=n, replace=False))
    sub = Scenario(None, scn.value_fns, (max(ks),), stores=(scn.store(0).take(chosen),))
    # one table serves every k, built only for columns min(ks)..max(ks).
    # Its exact cells equal replication_score bit for bit whatever max_r
    # and the columns are. A Monte Carlo cell's stream depends on max_r,
    # not on the columns, but a best-shot cell's work is its support size
    # at every r, so a cell past the budget puts every k's oracle past it
    # too: the trial raises before any such cell reaches a row
    table = build_score_table(sub, "replication", max_r=max(ks), columns=[(min(ks), max(ks))])
    rows = []
    for k in ks:
        oracle = brute_force_single(sub, 0, k)
        greedy = greedy_topk(sub, 0, k, table, known=oracle)
        ratio = 1.0 if oracle.total <= 0 else greedy.total / oracle.total
        rows.append((trial, k, greedy.total, oracle.total, ratio))
    return rows


def cmd_experiment(args) -> int:
    if args.sample:
        loaded = ingest_ratings(read_ratings(data.sample_ratings_path()))
    else:
        loaded = load_scenario(args.scenario)
    scn = loaded.scenario
    if scn.n_projects != 1:
        raise ValidationError("experiment needs a single-project scenario")
    if scn.value_fns[0].kind != "best_shot":
        raise ValidationError("experiment needs a best-shot scenario")
    try:
        ks = [int(part) for part in args.k.split(",") if part]
    except ValueError:
        raise ValidationError(f"bad --k list {args.k!r}") from None
    if not ks or min(ks) < 1 or len(set(ks)) < len(ks):
        raise ValidationError(f"bad --k list {args.k!r} (distinct sizes >= 1)")
    if args.n < 1:
        raise ValidationError(f"--n must be >= 1, got {args.n}")
    if args.n > scn.n_agents:
        raise ValidationError(
            f"--n {args.n} exceeds the {scn.n_agents} available agents"
        )
    if max(ks) > args.n:
        raise ValidationError(f"--k {max(ks)} exceeds --n {args.n}")
    if args.trials < 1:
        raise ValidationError(f"--trials must be >= 1, got {args.trials}")
    # priced before the first trial, as check prices its suites: each trial
    # runs the oracle once per k, on at most max C(n, k) teams, and the
    # oracle charges at least one unit per team
    per_trial = max(math.comb(args.n, k) for k in ks)
    shape = f"{args.trials} trials x {len(ks)} team sizes x {per_trial} teams per oracle"
    charge(args.trials * len(ks) * per_trial, enumeration_budget(), "experiment", shape)

    def write(fh) -> None:
        # rows stream out; only the ratios are kept, for the summary rows
        ratios = {k: array("d") for k in ks} | {"all": array("d")}
        writer = csv.writer(fh)
        writer.writerow(["trial", "k", "greedy", "opt", "ratio"])
        for t in range(args.trials):
            for trial, k, greedy, opt, ratio in _experiment_trial((scn, args.seed, t, args.n, ks)):
                writer.writerow([trial, k, repr(greedy), repr(opt), repr(ratio)])
                ratios[k].append(ratio)
                ratios["all"].append(ratio)
        for key, kept in ratios.items():
            writer.writerow(["mean", key, "", "", repr(float(np.mean(kept)))])
            writer.writerow(["min", key, "", "", repr(float(np.min(kept)))])

    if args.out is None:
        write(sys.stdout)
        return EXIT_OK
    # --out is replaced after the last trial, so a failed run leaves it as it was
    part = f"{args.out}.{os.getpid()}.part"
    fh = open(part, "x", newline="")
    try:
        with fh:
            write(fh)
        os.replace(part, args.out)
    except BaseException:
        os.unlink(part)
        raise
    return EXIT_OK


def cmd_worstcase(args) -> int:
    # a generator's keyword parameters are its flags; an int default makes an int flag
    accepted = inspect.signature(GENERATORS[args.name]).parameters
    kwargs = {}
    for param in ("k", "r", "a", "b", "c", "p", "eps", "theta", "n"):
        value = getattr(args, param)
        if value is None:
            continue
        if param not in accepted:
            _parser().error(
                f"--{param} does not apply to {args.name} "
                f"(accepted: {', '.join('--' + q for q in accepted)})"
            )
        if isinstance(accepted[param].default, int):
            if isinstance(value, float) and not value.is_integer():
                _parser().error(f"--{param} must be an integer for {args.name}")
            value = int(value)
        kwargs[param] = value
    inst = GENERATORS[args.name](**kwargs)
    report = {
        "name": inst.name,
        "params": inst.params,
        "citation": inst.citation,
        "expected": inst.expected,
        "scenario": scenario_to_dict(inst.scenario),
    }
    code = EXIT_OK
    if args.run:
        validation = validate_instance(inst)
        report["validation"] = asdict(validation)
        if not validation.ok:
            code = EXIT_PROPERTY
    _emit(json.dumps(report), args.out)
    return code


def build_parser() -> _Parser:
    parser = _Parser(prog="testscore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="pick a team for one project")
    p_select.add_argument("scenario", help="scenario JSON file")
    p_select.add_argument("--project", default=None, help="project name or index")
    p_select.add_argument("--k", type=int, default=None, help="team size (default: the project's k)")
    p_select.add_argument("--scores", default="replication",
                          help="mean | quantile:<cut> | replication")
    p_select.add_argument("--oracle", action="store_true",
                          help="also run the exact oracle and report the ratio")
    p_select.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_select.set_defaults(func=cmd_select)

    p_assign = sub.add_parser("assign", help="assign agents across all projects")
    p_assign.add_argument("scenario", help="scenario JSON file")
    p_assign.add_argument("--tie", choices=("det", "random"), default="det")
    p_assign.add_argument("--seed", type=int, default=0, help="seed for --tie random")
    p_assign.add_argument("--oracle", action="store_true")
    p_assign.add_argument("--out", default=None)
    p_assign.set_defaults(func=cmd_assign)

    p_check = sub.add_parser("check", help="run a property suite")
    p_check.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p_check.add_argument("--seed", type=int, default=None, help="default 7")
    p_check.add_argument("--trials", type=int, default=None,
                         help="override the suite's default trial count")
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    p_ingest = sub.add_parser("ingest", help="ratings CSV -> scenario JSON")
    ingest_src = p_ingest.add_mutually_exclusive_group(required=True)
    ingest_src.add_argument("ratings", nargs="?", default=None, help="ratings CSV file")
    ingest_src.add_argument("--sample", action="store_true",
                            help="use the bundled synthetic ratings")
    p_ingest.add_argument("--min-solutions", type=int, default=10)
    p_ingest.add_argument("--out", default=None)
    p_ingest.set_defaults(func=cmd_ingest)

    p_exp = sub.add_parser("experiment", help="greedy-vs-oracle trials on sampled teams")
    exp_src = p_exp.add_mutually_exclusive_group(required=True)
    exp_src.add_argument("scenario", nargs="?", default=None,
                         help="single-project best-shot scenario JSON")
    exp_src.add_argument("--sample", action="store_true",
                         help="ingest the bundled synthetic ratings instead")
    p_exp.add_argument("--n", type=int, default=10, help="agents sampled per trial")
    p_exp.add_argument("--k", default="2,3,4", help="comma-separated team sizes")
    p_exp.add_argument("--trials", type=int, default=100)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_exp.set_defaults(func=cmd_experiment)

    p_worst = sub.add_parser("worstcase", help="emit a bundled worst-case instance")
    p_worst.add_argument("name", choices=sorted(GENERATORS))
    for flag in ("k", "n"):
        p_worst.add_argument(f"--{flag}", type=int, default=None)
    for flag in ("r", "a", "b", "c", "p", "eps", "theta"):
        p_worst.add_argument(f"--{flag}", type=_finite_float(flag), default=None)
    p_worst.add_argument("--run", action="store_true",
                         help="validate the expected quantities and exit 4 on mismatch")
    p_worst.add_argument("--out", default=None)
    p_worst.set_defaults(func=cmd_worstcase)
    return parser


@cache
def _parser() -> _Parser:
    # built once per process; parse_args keeps no state between calls
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse help/usage paths; normalize to an int return
        return int(exc.code) if exc.code is not None else EXIT_OK
    except (ValidationError, _FlagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
