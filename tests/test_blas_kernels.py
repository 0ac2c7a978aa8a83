"""The engine's exact bits under other OpenBLAS kernels.

``OPENBLAS_CORETYPE`` picks which kernels a process's own OpenBLAS runs
(numpy's wheels ship it built for every x86-64 kernel family). The
bit-for-bit contracts are that a table cell equals ``replication_score``,
a ``team_values`` row its own ``project_utility`` call, and the engine its
reference form. Child processes rerun those tests with the variable set
in their own environment only, for every catalogue variant:

- the non-linear sum route (``total`` and ``ces`` teams and replication
  scores) ends each row in numpy's left-to-right add, which no BLAS
  kernel computes;
- the order route (``best_shot``, ``top_r``) ends each row in the same
  left-to-right add over its own grid's gaps, whether the row is scored
  alone, in a score column's block of agents of one support length, or
  in a padded block of teams (``TestOrderKernel``);
- the linear sum route (``total:identity``, ``ces:1``) and the product
  route (``success_prob``) reduce each agent's own atoms with np.dot, or
  a per-row matmul of the same length, and hold under Haswell's,
  Sandybridge's and Prescott's kernels alike;
- a store taken from a larger one gathers its best-shot, top-r and
  non-linear sum-route rows from rows its source scored over all of its
  agents, and its table, team values and oracle results equal a fresh
  store's (``TestTakenStore``).

The single-project oracle's screen on a store's merged grid still ends in
a matrix product, whose rounding follows the kernel; it only screens, and
the teams it keeps are rescored on their own bits.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SELECTION = (
    "(TestTableMatchesReplicationScore or TestTeamValues or TestLoneReference or TestSumKernel"
    " or TestOrderKernel or TestTakenStore) and not monte_carlo and not property"
)


def test_sum_route_bits_hold_under_other_blas_kernels():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        str(TESTS / "test_scores.py"), str(TESTS / "test_utility.py"), "-k", SELECTION,
    ]
    # Haswell: AVX2 hosts without AVX-512; Sandybridge: AVX without AVX2;
    # Prescott: x86-64 without AVX
    children = {
        core: subprocess.Popen(
            cmd, env={**env, "OPENBLAS_CORETYPE": core}, cwd=TESTS.parent,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for core in ("Haswell", "Sandybridge", "Prescott")
    }
    for core, child in children.items():
        out, _ = child.communicate(timeout=300)
        assert child.returncode == 0, f"OPENBLAS_CORETYPE={core}:\n{out}"
        assert " passed" in out and "failed" not in out, out
