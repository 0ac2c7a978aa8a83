"""Golden outputs: the bytes of each command's ``--out`` file.

Each case runs one CLI command in process and compares its output file
with ``tests/golden/<case>`` byte for byte, so a change that must leave
every output unchanged is checked on every report the CLI writes:
``check`` for every suite at small trial counts, ``select`` and
``assign --oracle`` on the demo scenario, ``select --oracle`` on each
project of ``tests/fixtures/oracle_mix.json``, ``experiment --sample``
(3 trials, and 300 at sizes 1..4 of 12 coders) and ``worstcase <name>
--run`` for every bundled generator.

Rewrite the goldens only for an intended numeric change, and record that
change in CHANGES.md. The one call that rewrites them, from the repo root:

    PYTHONPATH=src python3 tests/test_golden.py --rewrite
"""

import sys
from pathlib import Path

import pytest

from testscore.adversarial import GENERATORS
from testscore.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO = str(ROOT / "demos" / "scenarios" / "ces_tightness.json")
# 7 agents; each project takes a different path through the single-project
# oracle: total:sqrt at k = 3 the Jensen-bound screen, top_r:2 best teams
# that tie on the merged grid and are rescored as a block, best shot one
# merged-grid survivor
MIX = str(ROOT / "tests" / "fixtures" / "oracle_mix.json")

CASES = {
    "check_sketch.json": ["check", "--suite", "sketch", "--trials", "20"],
    "check_goodness.json": ["check", "--suite", "goodness", "--trials", "20"],
    "check_adversarial.json": ["check", "--suite", "adversarial"],
    "check_submodularity.json": ["check", "--suite", "submodularity", "--trials", "20"],
    "check_bsp.json": ["check", "--suite", "bsp", "--trials", "200"],
    "select_oracle.json": ["select", DEMO, "--oracle"],
    "assign_oracle.json": ["assign", DEMO, "--oracle"],
    **{f"select_mix_{p}.json": ["select", MIX, "--project", p, "--oracle"] for p in ("sqrt", "top2", "best")},
    "select_mix_sqrt_quantile.json": ["select", MIX, "--project", "sqrt", "--scores", "quantile:0.5", "--oracle"],
    "experiment_sample.csv": ["experiment", "--sample", "--trials", "3"],
    # long enough that every trial after the first reads the sample's per-coder scores
    "experiment_sample_long.csv": ["experiment", "--sample", "--trials", "300", "--k", "1,2,3,4", "--n", "12"],
    **{f"worstcase_{name}.json": ["worstcase", name, "--run"] for name in sorted(GENERATORS)},
}


def run_case(name: str, out: Path) -> int:
    return main(CASES[name] + ["--out", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert run_case(name, out) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: python3 tests/test_golden.py --rewrite")
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        code = run_case(name, GOLDEN / name)
        if code != EXIT_OK:
            sys.exit(f"{name}: exit {code}")
        print(f"wrote {GOLDEN / name}")
