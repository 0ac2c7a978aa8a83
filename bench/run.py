"""Seeded closed-loop benchmark for testscore.

Run one workload (what BENCHMARK.json's command does):

    python3 bench/run.py --workload check_suites --seed 0 --seconds 22 --trace 0

Run all four, each in its own process, and keep the results:

    python3 bench/run.py --workload all --seed 0 --out results.jsonl

Compare two result sets, and record the reference answers for the
default seed:

    python3 bench/run.py --compare base.jsonl change.jsonl
    python3 bench/run.py --workload select_catalogue --record-answers

One client sends each op only after the previous one has finished. Set-up
(imports, input preparation, a short untimed warm-up) is repeated and its
median reported as ``setup_s``. The timed phase then runs whole passes
over the workload's fixed op list, at least one, while the next pass
would end within ``--seconds``, and until at least 100 ops have run.
Every timing is scaled to a reference host speed (see ``hostspeed.py``);
the unscaled figures are printed too. Every op's output is checked, and for the default seed compared with the answers
recorded under ``answers/``; a failed check counts as a failed op and
makes the run exit 1.

With ``--trace 1`` the run measures an untraced phase, then installs the
tracer, prepares the inputs again and measures a traced phase. It reports
the per-layer figures of one set-up plus one pass, and the tracing
overhead. The last line of standard output is always the JSON result.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread per workload process; must precede numpy's import
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
ANSWERS = BENCH / "answers"

WORKLOAD_NAMES = ("experiment_sample", "select_catalogue", "assign_roster", "check_suites")
MIN_OPS = 100  # the least number of ops a timed phase runs
WARMUP_OPS = 3
SETUP_REPEATS = 5
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 900
MAX_REPORTED_PROBLEMS = 20


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def _import_program():
    """Import testscore from this checkout's src/ and refuse anything else."""
    if not (SRC / "testscore" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'testscore'}")
    sys.path.insert(0, str(SRC))
    import testscore
    from testscore import core

    where = Path(testscore.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"imported testscore from {where}, not from {SRC}")
    raw = os.environ.get("TESTSCORE_BUDGET")
    if raw is not None and raw.strip() != str(core.DEFAULT_BUDGET):
        # another budget changes which code paths run (exact versus MC)
        raise BenchError(
            f"TESTSCORE_BUDGET={raw!r}: the benchmark runs only under the "
            f"default budget {core.DEFAULT_BUDGET}"
        )
    return testscore


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "testscore_budget": os.environ.get("TESTSCORE_BUDGET"),
    }


@dataclass
class Phase:
    track: hostspeed.Track
    walls: list[float] = field(default_factory=list)  # each timed op's latency, in seconds
    spans: list[tuple[float, float]] = field(default_factory=list)  # when each started and ended
    passes: int = 0
    failed: int = 0
    parts: list[dict] = field(default_factory=list)  # tracer figures per pass
    worst_self_over_wall: float = 0.0
    # peak RSS once set-up and the first pass are done; later passes can
    # grow it through allocator fragmentation, and their number depends on
    # speed, so they are left out
    first_pass_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.walls)

    def latencies(self, scaled: bool = True) -> list[float]:
        if not scaled:
            return self.walls
        return [w * self.track.scale(*span) for w, span in zip(self.walls, self.spans)]

    def ops_per_s(self, scaled: bool = True) -> float:
        return self.attempted / math.fsum(self.latencies(scaled))


def _op_problems(op, raw, recorded, idx: int) -> list[str]:
    import workloads

    try:
        ans = op.answer(raw)
    except Exception as exc:  # a malformed output is a failed op
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    problems = op.check(ans)
    if recorded is not None:
        problems += workloads.diff_answers(recorded[idx], ans, op.label)
    return problems


def timed_phase(ops, seconds: float, min_ops: int, recorded, tracer=None) -> Phase:
    """Whole passes over ops, at least one, while the next pass, taking
    as long as the last, ends within seconds, and until min_ops have run.

    Every op thus runs equally often, so each op's first run in the
    process, which builds the caches of its inputs, weighs the same in
    every run. Only op.run is timed; reading and checking its output
    happen between ops. With a tracer, figures are kept per pass, and
    each op's traced self times are compared with its wall time.

    The host speed reference runs on an interval timer, in the middle of
    long ops too, and its time is left out of the op's latency; in a
    traced phase it runs between ops instead (see hostspeed.Track).
    """
    phase = Phase(hostspeed.Track(timer=tracer is None))
    track = phase.track
    perf = time.perf_counter
    shown = 0
    with track:
        start = perf()
        while True:
            pass_start = perf()
            for idx, op in enumerate(ops):
                if not track.timer and track.due(perf()):
                    track.sample()
                if tracer is not None:
                    tracer.begin_op()
                t0 = perf()
                c0 = track.clock()
                try:
                    raw = op.run()
                    error = None
                except Exception as exc:  # an op that raises is a failed op
                    error = f"{type(exc).__name__}: {exc}"
                wall = track.clock() - c0
                phase.walls.append(wall)
                phase.spans.append((t0, perf()))
                if tracer is not None:
                    phase.worst_self_over_wall = max(phase.worst_self_over_wall, tracer.end_op() / wall)
                problems = [error] if error else _op_problems(op, raw, recorded, idx)
                if problems:
                    phase.failed += 1
                    if shown < MAX_REPORTED_PROBLEMS:
                        shown += 1
                        print(f"FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)
            phase.passes += 1
            if phase.passes == 1:
                phase.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                phase.parts.append(tracer.take())
            now = perf()
            if phase.attempted >= min_ops and 2 * now - pass_start - start > seconds:
                return phase


def _percentile_ms(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) * 1e3


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(list((SRC / "testscore").rglob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_counters(name: str, seed: int, n_ops: int, setup_part: dict, parts: list[dict]) -> list[str]:
    """Work counters must repeat in every pass and in every traced run with
    the same seed, source and op list."""
    import tracing

    problems = []
    first = tracing.counter_view(parts[0])
    for p, part in enumerate(parts[1:], start=2):
        if tracing.counter_view(part) != first:
            problems.append(f"work counters of pass {p} differ from pass 1")
    record = {"setup": tracing.counter_view(setup_part), "pass": first}
    path = WORK / "counters" / f"{name}-seed{seed}-ops{n_ops}-{_source_digest()}.json"
    if path.is_file():
        if json.loads(path.read_text()) != json.loads(json.dumps(record)):
            problems.append(f"work counters differ from an earlier traced run ({path.name})")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return problems


def _recorded_answers(name: str, seed: int, n_ops: int):
    if seed != DEFAULT_SEED:
        return None
    path = ANSWERS / f"{name}.json"
    if not path.is_file():
        raise BenchError(f"no recorded answers at {path}")
    doc = json.loads(path.read_text())
    if doc["seed"] != DEFAULT_SEED or len(doc["answers"]) < n_ops:
        raise BenchError(f"{path} does not cover the default seed's {n_ops} ops")
    return doc["answers"][:n_ops]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    t0 = time.perf_counter()
    _import_program()
    import tracing
    import workloads

    import_s = time.perf_counter() - t0
    build = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, build, workdir, import_s, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _build(build, args, workdir: Path):
    ops = build(args.seed, workdir)
    return ops[: args.ops] if args.ops else ops


def _prepare(build, args, workdir: Path):
    ops = _build(build, args, workdir)
    for op in ops[:WARMUP_OPS]:
        op.answer(op.run())
    return ops


def _measure(args, build, workdir: Path, import_s: float, tracing) -> int:
    # with --ops the run is exactly one pass over the truncated op list
    seconds, min_ops = (0.0, 0) if args.ops else (args.seconds, MIN_OPS)
    if args.trace:
        # the untraced phase serves only trace.overhead_frac; the two
        # phases share the run's time
        seconds /= 2
    # each set-up counts the imports, which ran once before the first;
    # set-ups are scaled to the reference host speed like ops
    setup_raw = []
    setup_spans = []
    with hostspeed.Track() as track:
        for _ in range(SETUP_REPEATS if not args.trace else 1):
            t0 = time.perf_counter()
            c0 = track.clock()
            ops = _prepare(build, args, workdir)
            setup_raw.append(import_s + track.clock() - c0)
            setup_spans.append((t0, time.perf_counter()))
    setup_scaled = [wall * track.scale(*span) for wall, span in zip(setup_raw, setup_spans)]
    recorded = _recorded_answers(args.workload, args.seed, len(ops))

    phase = timed_phase(ops, seconds, min_ops, recorded)
    attempted = phase.attempted
    failed = phase.failed
    run_problems: list[str] = []
    details = {"passes": phase.passes, "pass_ops": len(ops)}
    if not args.trace:
        lat = phase.latencies()
        metrics = {
            "setup_s": _metric(statistics.median(setup_scaled), "s"),
            "ops_per_s": _metric(phase.ops_per_s(), "1/s"),
            "op_p50_ms": _metric(_percentile_ms(lat, 50), "ms"),
            "op_p90_ms": _metric(_percentile_ms(lat, 90), "ms"),
            "peak_rss_mb": _metric(phase.first_pass_rss_mb, "MB"),
        }
        raw = phase.latencies(scaled=False)
        details["raw"] = {
            "setup_s": statistics.median(setup_raw),
            "ops_per_s": phase.ops_per_s(scaled=False),
            "op_p50_ms": _percentile_ms(raw, 50),
            "op_p90_ms": _percentile_ms(raw, 90),
        }
        details["host_scale"] = phase.track.median_scale()
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            ops = _build(build, args, workdir)
            setup_part = tracer.take()
            traced = timed_phase(ops, seconds, min_ops, recorded, tracer)
        finally:
            tracer.uninstall()
        attempted += traced.attempted
        failed += traced.failed
        run_problems += _check_counters(args.workload, args.seed, len(ops), setup_part, traced.parts)
        if traced.worst_self_over_wall > 1.0:
            run_problems.append(
                f"traced self times exceed an op's wall time ({traced.worst_self_over_wall:.6f}x)"
            )
        values = tracing.layer_metrics(setup_part, traced.parts)
        values[tracing.OVERHEAD_METRIC] = 1.0 - traced.ops_per_s() / phase.ops_per_s()
        metrics = {name: _metric(v, tracing.metric_unit(name)) for name, v in values.items()}
        details.update(
            traced_passes=traced.passes,
            worst_self_over_wall=traced.worst_self_over_wall,
            counters=tracing.counter_view(traced.parts[0]),
        )
    for problem in run_problems:
        print(f"FAILED run: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    _emit(args, result, details)
    return 0 if result["correct"] else 1


def _emit(args, result: dict, details: dict) -> None:
    facts = machine_facts()
    print(
        f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{details['passes']} pass(es) of {details['pass_ops']} ops"
    )
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    for name, m in result["metrics"].items():
        note = f"  ({result['attempted']} ops)" if name.startswith(("op_", "ops_")) else ""
        print(f"{name:<52} {m['value']:.6g} {m['unit']}{note}")
    if "raw" in details:
        print(f"# timings above are scaled by the host speed reference (median scale {details['host_scale']:.4g}); unscaled:")
        for name, v in details["raw"].items():
            print(f"#   {name:<48} {v:.6g} {result['metrics'][name]['unit']}")
    if not args.trace:
        # error_rate is carried by attempted/failed in the result line
        rate = result["failed"] / result["attempted"]
        print(f"{'error_rate':<52} {rate:.6g} fraction  ({result['failed']} of {result['attempted']} ops failed)")
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "ops_limit": args.ops,
            "machine": facts,
            "details": details,
            "result": result,
        }
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    failures = []
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.out:
            cmd += ["--out", str(Path(args.out).resolve())]
        if args.ops:
            cmd += ["--ops", str(args.ops)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        if proc.returncode != 0:
            failures.append(f"{name} (exit {proc.returncode})")
    if failures:
        print(f"# failed: {', '.join(failures)}")
        return 1
    print("# all workloads correct")
    return 0


def record_answers(args) -> int:
    """Write the default seed's answers for one workload's full pass."""
    if args.seed != DEFAULT_SEED or args.ops:
        raise BenchError("answers are recorded for the default seed's full pass only")
    _import_program()
    import workloads

    workdir = WORK / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        answers = []
        for op in workloads.WORKLOADS[args.workload](args.seed, workdir):
            ans = op.answer(op.run())
            problems = op.check(ans)
            if problems:
                raise BenchError(f"{op.label}: {'; '.join(problems)}")
            answers.append(ans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ANSWERS.mkdir(exist_ok=True)
    path = ANSWERS / f"{args.workload}.json"
    body = ",\n".join(json.dumps(a, sort_keys=True) for a in answers)
    path.write_text(
        f'{{"workload": "{args.workload}", "seed": {args.seed}, "answers": [\n{body}\n]}}\n'
    )
    print(f"recorded {len(answers)} answers in {path.relative_to(ROOT)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append one JSON record per run to this file")
    p.add_argument("--ops", type=int, default=0, help="run one pass over the first N ops only (for tests)")
    p.add_argument("--record-answers", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.compare:
            import compare

            return compare.main(*args.compare)
        if args.workload is None:
            raise BenchError("--workload is required")
        if not (0 <= args.seed < 2**64) or args.seconds < 0 or args.ops < 0:
            raise BenchError("--seed, --seconds and --ops must be non-negative")
        if args.record_answers:
            return record_answers(args)
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
