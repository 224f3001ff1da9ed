#!/usr/bin/env python3
"""Run every workload over several seeds and report each metric's spread.

    python3 perfbench/sweep.py                      # every workload, seed 1, both modes
    python3 perfbench/sweep.py --seeds 10 --baseline perfbench/baseline.json

For each workload and each seed from 1 to --seeds it runs run.py once
untraced and once traced, for BENCHMARK.json's run_seconds, and prints
every metric by name with its unit. It then prints, per workload and
end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median beside the metric's bound. The exit code is 1 if a run
fails its checks or a spread exceeds its bound. --baseline writes the
medians and quartiles to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    result["provenance"], result["details"] = record["provenance"], record["details"]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=int, default=1, help="number of seeds, from seed 1")
    p.add_argument("--baseline", metavar="PATH", help="write medians and quartiles here")
    args = p.parse_args()

    seconds = SPEC["run_seconds"]
    seeds = range(1, 1 + args.seeds)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    baseline = {"run_seconds": seconds, "seeds": list(seeds), "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = {0: [], 1: []}
        for seed in seeds:
            for trace in (0, 1):
                r = run(workload, seed, seconds, trace)
                runs[trace].append(r)
                ok &= r["correct"]
                print(f"{workload} seed={seed} trace={trace} correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}")
                for name, m in r["metrics"].items():
                    print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
                sys.stdout.flush()
        baseline["provenance"] = runs[0][0]["provenance"]
        summary = {"end_to_end": {}, "per_layer": {}}
        print(f"{workload}: spread over {len(seeds)} seeds")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for name in runs[trace][0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs[trace]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                summary[key][name] = {"median": med, "q1": q1, "q3": q3,
                                      "unit": runs[trace][0]["metrics"][name]["unit"]}
                if trace == 0:
                    flag = "" if spread <= bounds[name] else "  OVER BOUND"
                    ok &= not flag
                    print(f"  {name:<14} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                          f"spread {spread:7.4f}  bound {bounds[name]}{flag}")
        baseline["workloads"][workload] = summary
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
