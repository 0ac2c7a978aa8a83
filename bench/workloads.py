"""The benchmark's four seeded workloads.

Each workload function turns a seed into one pass: a fixed list of ops.
It does all input preparation (ingesting the sample ratings, writing
scenario JSON, generating instances), so none of it is timed as an op. Each op has a
timed ``run`` and an untimed ``answer`` that turns run's output into plain
JSON data, plus ``check``, which lists what is wrong with an answer.

Program functions are looked up on their modules at call time, never
imported by name, so a traced run sees every call the benchmark makes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from testscore import adversarial, cli, core, data, optimize, scenario_io, scores, sketch, utility

REL_TOL = 1e-9

# experiment --sample --n 10 --k 2,3,4, one trial per op
EXPERIMENT_N = 10
EXPERIMENT_KS = (2, 3, 4)
EXPERIMENT_TRIALS = 200

# select --oracle on seeded 8-coder cohorts; k cycles through SELECT_KS,
# so each cohort is asked with every non-best-shot catalogue variant twice
# at k = 2 and once at k = 3. A k = 3 request takes about four times as
# long; with the two sizes in equal numbers the median latency would fall
# in the gap between them, where it jumps with the slowest k = 2 request.
SELECT_COHORT = 8
SELECT_COHORTS = 2
SELECT_KS = (2, 3, 2)
# success-probability parameters are the catalogue's (which assumes
# supports in [0, 3]) scaled by 3/100 to the 0..100 rating range
SELECT_VARIANTS = (
    "total:identity",
    "total:sqrt",
    "total:log1p",
    "ces:1.5",
    "ces:2.0",
    "ces:4.0",
    "success_prob:clamp_linear:0.0075",
    "success_prob:one_minus_exp:0.015",
    "total:power:0.5",
    "ces:1.0",
    "top_r:2",
)
NOT_BSP = {"top_r"}  # catalogue kinds without the balanced substitution property

# assign on rosters with many projects per team slot: three of every four
# projects are best-shot, the rest cycle through the other BSP kinds
ROSTERS = 10
ROSTER_AGENTS = 64
ROSTER_PROJECTS = 32
ROSTER_SIZES = (1, 2)
ROSTER_OTHER_KINDS = (
    "total:identity",
    "total:sqrt",
    "total:log1p",
    "ces:1.5",
    "ces:2.0",
    "ces:4.0",
    "success_prob:clamp_linear:0.25",
    "success_prob:one_minus_exp:0.5",
)

# the check command's default trial counts for these suites
CHECK_SKETCH_TRIALS = 200
CHECK_GOODNESS_TRIALS = 200
CHECK_SUBMODULARITY_TRIALS = 50
CHECK_WELFARE_TRIALS = 50
# each suite draws this many candidate scenarios per trial and keeps
# those closest in shape and work to the draws of a fixed stream (see
# _matched)
CHECK_POOL = 4
CHECK_SHAPE_SEED = 0


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    answer: Callable[[object], dict]
    check: Callable[[dict], list[str]]


def _numpy_scalar(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON data")


def _plain(obj) -> dict:
    # JSON round trip, so answers compare like the recorded ones: tuples
    # become lists and numpy scalars Python numbers
    return json.loads(json.dumps(obj, default=_numpy_scalar))


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _not_above(x: float, limit: float) -> bool:
    return x <= limit + REL_TOL * abs(limit)


def diff_answers(recorded, got, where: str = "answer") -> list[str]:
    """Differences between a recorded answer and a new one: teams and
    other exact fields must be identical, floats equal to 1e-9 relative."""
    if isinstance(recorded, dict) and isinstance(got, dict):
        if recorded.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} differ from recorded {sorted(recorded)}"]
        return [p for key in recorded for p in diff_answers(recorded[key], got[key], f"{where}.{key}")]
    if isinstance(recorded, list) and isinstance(got, list):
        if len(recorded) != len(got):
            return [f"{where}: length {len(got)} differs from recorded {len(recorded)}"]
        return [
            p for idx, (a, b) in enumerate(zip(recorded, got)) for p in diff_answers(a, b, f"{where}[{idx}]")
        ]
    if _is_number(recorded) and _is_number(got) and float in (type(recorded), type(got)):
        return [] if _close(float(recorded), float(got)) else [f"{where}: {got!r} differs from recorded {recorded!r}"]
    if type(recorded) is not type(got) or recorded != got:
        return [f"{where}: {got!r} differs from recorded {recorded!r}"]
    return []


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _ingest_sample():
    rows = scenario_io.read_ratings(data.sample_ratings_path())
    return scenario_io.ingest_ratings(rows)


def _greedy_vs_oracle(greedy: float, oracle: float, bsp: bool, bound: float, satisfied=None) -> list[str]:
    problems = []
    if not _not_above(greedy, oracle):
        problems.append(f"greedy total {greedy!r} exceeds oracle total {oracle!r}")
    if bsp:
        if satisfied is None:
            ratio = 1.0 if oracle <= 0.0 else greedy / oracle
            satisfied = ratio >= bound - optimize.BOUND_TOL
        if not satisfied:
            problems.append(f"approximation bound {bound!r} not satisfied on a BSP objective")
    return problems


def _trace_sum_matches(sketch_objective: float, trace_sum: float) -> list[str]:
    if _close(sketch_objective, trace_sum):
        return []
    return [f"sketch_objective {sketch_objective!r} differs from summed trace {trace_sum!r}"]


# ---------------------------------------------------------------- experiment


def build_experiment_sample(seed: int, workdir: Path) -> list[Op]:
    scn = _ingest_sample().scenario

    def answer(rows) -> dict:
        return _plain({"rows": [[k, greedy, opt] for _t, k, greedy, opt, _ratio in rows]})

    def check(ans: dict) -> list[str]:
        problems = []
        if [row[0] for row in ans["rows"]] != list(EXPERIMENT_KS):
            problems.append(f"rows cover k = {[row[0] for row in ans['rows']]}")
        for _k, greedy, opt in ans["rows"]:
            # best shot has the balanced substitution property
            problems += _greedy_vs_oracle(greedy, opt, True, optimize.SINGLE_GREEDY_BOUND)
        return problems

    def op(trial: int) -> Op:
        packed = (scn, seed, trial, EXPERIMENT_N, list(EXPERIMENT_KS))
        return Op(f"trial{trial}", lambda: cli._experiment_trial(packed), answer, check)

    return [op(t) for t in range(EXPERIMENT_TRIALS)]


# ------------------------------------------------------------------- select


def _cohort(scn, c: int, gen: np.random.Generator) -> list[int]:
    # one coder per support-size stratum; cohort c takes the same support
    # sizes for every seed and the seed picks among the coders with that
    # size, so every seed carries the same enumeration work
    order = sorted(scn.agents, key=lambda i: (len(scn.dist(i, 0)), i))
    chosen = []
    for stratum in np.array_split(np.array(order), SELECT_COHORT):
        size = len(scn.dist(int(stratum[(2 * c + 1) * len(stratum) // (2 * SELECT_COHORTS)]), 0))
        same = [int(i) for i in stratum if len(scn.dist(int(i), 0)) == size]
        chosen.append(same[int(gen.integers(len(same)))])
    return sorted(chosen)


def build_select_catalogue(seed: int, workdir: Path) -> list[Op]:
    loaded = _ingest_sample()
    scn = loaded.scenario
    out = workdir / "select_out.json"
    ops = []
    for c in range(SELECT_COHORTS):
        chosen = _cohort(scn, c, core.RngSpec(seed=seed).generator(c))
        dists = [scn.dist(i, 0) for i in chosen]
        names = [loaded.agent_names[i] for i in chosen]
        paths = []
        for v, tag in enumerate(SELECT_VARIANTS):
            g = scenario_io.parse_value_fn(tag)
            path = workdir / f"select_c{c}_v{v}.json"
            view = core.Scenario.single_project(dists, g, k=max(SELECT_KS))
            scenario_io.save_scenario(path, view, names, ["p0"])
            paths.append(path)
        for o in range(len(SELECT_VARIANTS) * len(SELECT_KS)):
            v = o % len(SELECT_VARIANTS)
            k = SELECT_KS[o % len(SELECT_KS)]
            ops.append(_select_op(f"c{c}:{o}:{SELECT_VARIANTS[v]}:k{k}", paths[v], k, SELECT_VARIANTS[v], out))
    return ops


def _select_op(label: str, path: Path, k: int, tag: str, out: Path) -> Op:
    argv = ["select", str(path), "--k", str(k), "--oracle", "--out", str(out)]
    bsp = tag.split(":")[0] not in NOT_BSP

    def answer(rc) -> dict:
        if rc != 0:
            return {"rc": rc}
        doc = json.loads(out.read_text())
        return _plain(
            {
                "rc": rc,
                "selected": doc["selected"],
                "total": doc["result"]["total"],
                "oracle_selected": doc["oracle_selected"],
                "oracle_total": doc["oracle"]["total"],
                "satisfied": doc["approximation"]["satisfied"],
            }
        )

    def check(ans: dict) -> list[str]:
        if ans["rc"] != 0:
            return [f"select exited {ans['rc']}"]
        problems = []
        if len(ans["selected"]) != k:
            problems.append(f"selected {len(ans['selected'])} coders, asked for {k}")
        problems += _greedy_vs_oracle(
            ans["total"], ans["oracle_total"], bsp, optimize.SINGLE_GREEDY_BOUND, ans["satisfied"]
        )
        return problems

    return Op(label, lambda: cli.main(argv), answer, check)


# ------------------------------------------------------------------- assign


def _roster(gen: np.random.Generator):
    # every (agent, project) support has 1 to 3 atoms on [0, 3]
    n, m = ROSTER_AGENTS, ROSTER_PROJECTS
    sizes = gen.integers(1, 4, (n, m))
    values = np.round(gen.uniform(0.0, 3.0, (n, m, 3)), 3)
    weights = gen.uniform(0.2, 1.0, (n, m, 3))
    dists = []
    for i in range(n):
        row = []
        for j in range(m):
            atoms, first = np.unique(values[i, j, : sizes[i, j]], return_index=True)
            w = weights[i, j, first]
            row.append(core.Distribution(tuple(atoms.tolist()), tuple((w / w.sum()).tolist())))
        dists.append(tuple(row))
    value_fns = tuple(
        scenario_io.parse_value_fn(
            "best_shot" if j % 4 != 3 else ROSTER_OTHER_KINDS[(j // 4) % len(ROSTER_OTHER_KINDS)]
        )
        for j in range(m)
    )
    ks = tuple(ROSTER_SIZES[j % len(ROSTER_SIZES)] for j in range(m))
    return core.Scenario(dists=tuple(dists), value_fns=value_fns, cardinalities=ks)


def build_assign_roster(seed: int, workdir: Path) -> list[Op]:
    out = workdir / "assign_out.json"
    ops = []
    for r in range(ROSTERS):
        roster = _roster(core.RngSpec(seed=seed).generator(r))
        path = workdir / f"roster{r}.json"
        scenario_io.save_scenario(path, roster)
        ops.append(_assign_op(f"roster{r}", path, roster.cardinalities, out))
    return ops


def _assign_op(label: str, path: Path, ks: tuple[int, ...], out: Path) -> Op:
    argv = ["assign", str(path), "--out", str(out)]

    def answer(rc) -> dict:
        if rc != 0:
            return {"rc": rc}
        doc = json.loads(out.read_text())
        result = doc["result"]
        return _plain(
            {
                "rc": rc,
                "assignment": doc["assignment"],
                "total": result["total"],
                "sketch_objective": result["sketch_objective"],
                "trace_sum": sum(step["score"] for step in result["trace"]),
            }
        )

    def check(ans: dict) -> list[str]:
        if ans["rc"] != 0:
            return [f"assign exited {ans['rc']}"]
        problems = []
        sizes = [len(team) for team in ans["assignment"].values()]
        if sizes != list(ks):
            problems.append(f"team sizes {sizes} differ from the project sizes {list(ks)}")
        problems += _trace_sum_matches(ans["sketch_objective"], ans["trace_sum"])
        return problems

    return Op(label, lambda: cli.main(argv), answer, check)


# -------------------------------------------------------------------- check


def _witness(w) -> dict:
    return {"set": list(w.witness_set), "u": w.u, "v": w.v}


def _bound_op(label: str, verify: str, scn) -> Op:
    def run():
        return getattr(sketch, verify)(scn, 0, scn.cardinalities[0])

    def answer(rep) -> dict:
        return _plain({"ok": rep.ok, "lower": _witness(rep.worst_lower), "upper": _witness(rep.worst_upper)})

    return Op(label, run, answer, _report_ok)


def _report_ok(ans: dict) -> list[str]:
    return [] if ans["ok"] else ["report not ok"]


def _submodularity_op(label: str, scn) -> Op:
    def answer(rep) -> dict:
        return _plain({"ok": rep.ok, "witness": rep.witness})

    return Op(label, lambda: utility.submodularity_check(scn, 0, max_agents=5), answer, _report_ok)


def _welfare_op(label: str, scn) -> Op:
    def run():
        table = scores.build_score_table(scn, "replication", max_r=max(scn.cardinalities))
        greedy = optimize.greedy_welfare(scn, table)
        oracle = optimize.brute_force_welfare(scn)
        return greedy, oracle, optimize.approximation_report(scn, greedy, oracle)

    def answer(raw) -> dict:
        greedy, oracle, approx = raw
        return _plain(
            {
                "greedy": greedy.assignment.sets,
                "greedy_total": greedy.total,
                "oracle": oracle.assignment.sets,
                "oracle_total": oracle.total,
                "satisfied": approx.satisfied,
                "bound": approx.bound,
                "sketch_objective": greedy.sketch_objective,
                "trace_sum": sum(step.score for step in greedy.score_trace),
            }
        )

    def check(ans: dict) -> list[str]:
        # random_welfare_scenario draws BSP value functions only
        return _greedy_vs_oracle(
            ans["greedy_total"], ans["oracle_total"], True, ans["bound"], ans["satisfied"]
        ) + _trace_sum_matches(ans["sketch_objective"], ans["trace_sum"])

    return Op(label, run, answer, check)


def _instance_op(inst) -> Op:
    def answer(rep) -> dict:
        return _plain({"ok": rep.ok, "measured": {row.name: row.measured for row in rep.rows}})

    return Op(inst.name, lambda: adversarial.validate_instance(inst), answer, _report_ok)


def _team_outcomes(sizes: list[int], k: int) -> int:
    # outcomes an exact check of every team of at most k members
    # enumerates: the sum over those teams of the product of support sizes
    e = [1] + [0] * k
    for size in sizes:
        for r in range(k, 0, -1):
            e[r] += e[r - 1] * size
    return sum(e[1:])


def _single_work(scn, k: int) -> int:
    return _team_outcomes([len(scn.dist(i, 0)) for i in scn.agents], k)


def _welfare_work(scn) -> int:
    # every project's teams, plus the assignment DP's stages
    teams = sum(
        _team_outcomes([len(scn.dist(i, j)) for i in scn.agents], k) for j, k in enumerate(scn.cardinalities)
    )
    n, used, stages = scn.n_agents, 0, 0
    for k in scn.cardinalities:
        stages += math.comb(n, used) * math.comb(n - used, k)
        used += k
    return teams + stages


def _matched(candidates: list, reference: list, key: Callable, work: Callable) -> list:
    """For each reference scenario in turn, the unused candidate with the
    same key and the nearest work (on a log scale); of any key once those
    with its key are used up. The reference draws come from a fixed
    stream, so every seed checks scenarios of the same shapes and work,
    and the seed moves which scenarios they are but hardly how long they
    take."""
    groups: dict = {}
    for c, cand in enumerate(candidates):
        groups.setdefault(key(cand), []).append((math.log(work(cand)), c))
    picked = []
    for ref in reference:
        w = math.log(work(ref))
        group = groups.get(key(ref)) or max(groups.values(), key=len)
        best = min(group, key=lambda wc: (abs(wc[0] - w), wc[1]))
        group.remove(best)
        picked.append(candidates[best[1]])
    return picked


def build_check_suites(seed: int, workdir: Path) -> list[Op]:
    # streams follow the check command, trial t drawing from generator(t),
    # over CHECK_POOL times as many trials, matched to the shapes of the
    # fixed stream's first trials; the strong-sketch and goodness suites
    # check the same scenarios, as the check command's equal streams do
    rng = core.RngSpec(seed=seed)
    shapes = core.RngSpec(seed=CHECK_SHAPE_SEED)
    pool = adversarial.CATALOGUE_POOL

    def bsp_draws(streams, trials):
        return [adversarial.random_bsp_scenario(streams.generator(t)) for t in range(trials)]

    def single_draws(streams, trials):
        return [
            adversarial.random_single_scenario(streams.generator(t), pool[t % len(pool)](), n=5, k=2)
            for t in range(trials)
        ]

    def welfare_draws(streams, trials):
        return [adversarial.random_welfare_scenario(streams.generator(t)) for t in range(trials)]

    bsp = _matched(
        bsp_draws(rng, CHECK_POOL * CHECK_SKETCH_TRIALS),
        bsp_draws(shapes, CHECK_SKETCH_TRIALS),
        lambda scn: (scn.value_fns[0].kind, scn.cardinalities[0]),
        lambda scn: _single_work(scn, scn.cardinalities[0]),
    )
    single = _matched(
        single_draws(rng, CHECK_POOL * CHECK_SUBMODULARITY_TRIALS),
        single_draws(shapes, CHECK_SUBMODULARITY_TRIALS),
        lambda scn: scn.value_fns[0].kind,
        lambda scn: _single_work(scn, scn.n_agents),
    )
    welfare = _matched(
        welfare_draws(rng, CHECK_POOL * CHECK_WELFARE_TRIALS),
        welfare_draws(shapes, CHECK_WELFARE_TRIALS),
        lambda scn: scn.cardinalities,
        _welfare_work,
    )
    small = []
    for t in range(max(CHECK_SKETCH_TRIALS, CHECK_GOODNESS_TRIALS, CHECK_SUBMODULARITY_TRIALS, CHECK_WELFARE_TRIALS)):
        if t < CHECK_SKETCH_TRIALS:
            small.append(_bound_op(f"sketch{t}", "verify_strong_sketch_bounds", bsp[t]))
        if t < CHECK_GOODNESS_TRIALS:
            small.append(_bound_op(f"goodness{t}", "verify_goodness_sandwich", bsp[t]))
        if t < CHECK_SUBMODULARITY_TRIALS:
            small.append(_submodularity_op(f"submodularity{t}", single[t]))
        if t < CHECK_WELFARE_TRIALS:
            small.append(_welfare_op(f"welfare{t}", welfare[t]))
    # each fixed adversarial instance follows one slice of the small
    # checks, so the small checks are timed all through the pass (the
    # two largest instances take most of it) and a short prefix of the
    # pass stays cheap
    instances = [_instance_op(make()) for make in adversarial.GENERATORS.values()]
    ops = []
    for chunk, inst in zip(np.array_split(np.arange(len(small)), len(instances)), instances):
        ops += [small[int(i)] for i in chunk]
        ops.append(inst)
    return ops


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "experiment_sample": build_experiment_sample,
    "select_catalogue": build_select_catalogue,
    "assign_roster": build_assign_roster,
    "check_suites": build_check_suites,
}
