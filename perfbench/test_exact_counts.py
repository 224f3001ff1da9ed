"""The benchmark's exact counts repeat across processes for one seed.

Later changes may rest a claim on kernels.calls, kernels.point_steps,
quadrature.panels_per_solve and series.derive_calls, so every counter of a
traced pass must come out the same in two fresh interpreters (with
different hash seeds) given the same workload seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SEED = 12345

# The first op fills the package's caches (as in the set-up probe); then
# the counters of one traced pass.
_SNIPPET = """
import json, sys
from run import run_pass
from tracer import Tracer
from workloads import WORKLOADS
ops = WORKLOADS[sys.argv[1]](int(sys.argv[2])).ops
ops[0].run()
tracer = Tracer()
failed = run_pass(ops, tracer)[1]
print(json.dumps({"failed": failed, "counts": tracer.counts()}))
"""


@pytest.mark.parametrize("workload", ["table_ref", "oracle_large_n", "psi_grid", "expansion_sweep"])
def test_counts_repeat_across_processes(workload):
    path = os.pathsep.join([str(HERE.parent / "src"), str(HERE)])
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _SNIPPET, workload, str(SEED)],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(hash_seed)),
        )
        for hash_seed in (1, 2)
    ]
    outputs = [p.communicate(timeout=300)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    first, second = (json.loads(out) for out in outputs)
    assert first["failed"] == 0
    assert first["counts"]["_kernels.calls"] > 0
    assert first == second
