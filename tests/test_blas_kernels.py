"""The sum route's exact bits under other OpenBLAS kernels.

``OPENBLAS_CORETYPE`` picks which kernels a process's own OpenBLAS runs
(numpy's wheels ship it built for every x86-64 kernel family). The sum
route, ``total`` and ``ces`` teams and replication scores, ends each row
in numpy's left-to-right add, which no BLAS kernel computes, so its
bit-for-bit contracts must hold under any kernel: a table cell equals
``replication_score``, a ``team_values`` row its own ``project_utility``
call, and the engine its reference form. Child processes rerun those
tests with the variable set in their own environment only.

Only the sum route is covered. The order route (``best_shot``,
``top_r``) and the product route (``success_prob``) still reduce through
np.dot, gemv and matmul, whose rounding follows the kernel's unrolling,
so their contracts hold for the kernels the host picks and fail under
Prescott's.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SELECTION = (
    "(TestTableMatchesReplicationScore or TestTeamValues or TestLoneReference or TestSumKernel)"
    " and (total or ces) and not monte_carlo and not property"
)


def test_sum_route_bits_hold_under_other_blas_kernels():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        str(TESTS / "test_scores.py"), str(TESTS / "test_utility.py"), "-k", SELECTION,
    ]
    # Haswell: AVX2 hosts without AVX-512; Prescott: x86-64 without AVX
    children = {
        core: subprocess.Popen(
            cmd, env={**env, "OPENBLAS_CORETYPE": core}, cwd=TESTS.parent,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for core in ("Haswell", "Prescott")
    }
    for core, child in children.items():
        out, _ = child.communicate(timeout=300)
        assert child.returncode == 0, f"OPENBLAS_CORETYPE={core}:\n{out}"
        assert " passed" in out and "failed" not in out, out
