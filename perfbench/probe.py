"""Set-up probe: import the package in a fresh interpreter and run one op.

    PYTHONPATH=src python3 perfbench/probe.py <workload> <seed>

Prints one JSON line with the import time as soon as the workload's first
op has returned, then a second line saying whether that op's output passed
its check. run.py times from launch to the first line.
"""

import json
import sys
import time

t0 = time.perf_counter()
import qhotunnel.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - t0

from workloads import WORKLOADS  # noqa: E402

op = WORKLOADS[sys.argv[1]](int(sys.argv[2])).ops[0]
out = op.run()
print(json.dumps({"import_s": import_s}), flush=True)
print(json.dumps({"ok": bool(op.check(out))}), flush=True)
