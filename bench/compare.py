"""Compare two result sets written by ``run.py --out``.

For each (workload, metric) pair it prints each side's median and
quartiles and the change's median as a ratio of the base median. An
end-to-end pair is "unresolved" when either side's quartile spread, as a
share of its median, is wider than the metric's bound in BENCHMARK.json;
otherwise it is "worse" when the change is worse than the base by more
than the bound, and "ok" when it is not. Per-layer metrics have no bound
and get no verdict.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[tuple[str, str], tuple[str, list[float]]]:
    """(workload, metric) -> (unit, values), one value per run."""
    out: dict[tuple[str, str], tuple[str, list[float]]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        for name, m in record["result"]["metrics"].items():
            unit, values = out.setdefault((record["workload"], name), (m["unit"], []))
            values.append(float(m["value"]))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    lower = better == "lower"
    if max(spread(base), spread(change)) > bound:
        wins = min(change) > max(base) if not lower else max(change) < min(base)
        return "better (every run)" if wins else "unresolved"
    b = quartiles(base)[1]
    c = quartiles(change)[1]
    worse_by = (c - b) / abs(b) if lower else (b - c) / abs(b)
    return "worse" if worse_by > bound else "ok"


def main(base_path: str, change_path: str) -> int:
    spec = json.loads(SPEC.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base = load(base_path)
    change = load(change_path)
    header = f"{'workload':<18} {'metric':<52} {'base median [q1, q3]':<34} {'change median [q1, q3]':<34} {'ratio':>8}  verdict"
    print(header)
    worse = 0
    for key in sorted(set(base) & set(change)):
        workload, name = key
        unit, bvals = base[key]
        _, cvals = change[key]
        bq = quartiles(bvals)
        cq = quartiles(cvals)
        ratio = cq[1] / bq[1] if bq[1] else float("nan")
        if name in e2e:
            v = verdict(bvals, cvals, e2e[name]["better"], e2e[name]["bound"])
            worse += v == "worse"
        else:
            v = "-"
        print(
            f"{workload:<18} {name:<52} "
            f"{f'{bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] {unit}':<34} "
            f"{f'{cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {unit}':<34} "
            f"{ratio:>8.4f}  {v}"
        )
    only = sorted(set(base) ^ set(change))
    if only:
        print(f"# {len(only)} (workload, metric) pairs appear on one side only")
    return 1 if worse else 0
