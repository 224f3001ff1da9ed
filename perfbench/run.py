#!/usr/bin/env python3
"""Benchmark of qhotunnel: one workload, one seed, tracing off or on.

    python3 perfbench/run.py --workload table_ref --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout. It imports the package from
src/, with no install or build step, and runs whichever kernel
``qhotunnel.BACKEND`` reports, in this one process and thread.

A run times five fresh interpreters from launch to their first result
(set-up), makes one warm-up pass over the workload's ops, then repeats
passes until --seconds have gone by and the workload's minimum sample count
is reached. Every op's output is checked. The warm-up pass is traced, so
every run checks the quadrature's error estimate; with --trace 1 all
passes are traced and give the per-layer metrics.

End-to-end times are scaled to a reference speed (see speed.py): each op,
and each set-up probe, is bracketed by a fixed reference load, because the
speed of a shared machine drifts by tens of percent within a minute.
The result record keeps the raw times beside the scaled ones, and the
details give the end-to-end times computed from the raw ones. Per-layer
times, import.s among them, are raw.

The lines before the last name every metric with its unit and give the
provenance and run details. The last line is one JSON object with the keys
correct, attempted, failed and metrics: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. A full result record, and the spans of a
traced run, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import timeit
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("table_ref", "oracle_large_n", "psi_grid", "expansion_sweep")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_setup(workload: str, seed: int) -> tuple[float, float, float, bool]:
    """One fresh interpreter: set-up seconds (launch to first result) scaled
    to the reference speed, the same raw, raw import seconds, and whether
    its first op passed its check."""
    from speed import NOMINAL_S, reference_load_s

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    before = reference_load_s()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        second = proc.stdout.readline()
        proc.wait()
    if proc.returncode != 0 or not second:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    scale = NOMINAL_S / min(before, reference_load_s())
    return setup_s * scale, setup_s, json.loads(first)["import_s"], json.loads(second)["ok"]


def git_commit() -> str | None:
    """HEAD of the checkout read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy as np
    import qhotunnel

    try:
        compiled = importlib.import_module("qhotunnel._kernels._hermite_cy")
        import_error = None
    except ImportError as exc:
        compiled, import_error = None, str(exc)
    if compiled is None:
        ratio = "unavailable: the compiled kernel does not import"
    else:
        from qhotunnel._kernels import _hermite_py

        x = np.linspace(40.0, 42.0, 48)
        best = [min(timeit.repeat(lambda: f(800, x), number=1, repeat=5))
                for f in (_hermite_py.psi_scaled_grid, compiled.psi_scaled_grid)]
        ratio = best[1] / best[0]
    return {
        "backend": qhotunnel.BACKEND,
        "compiled_kernel_import_error": import_error,
        "compiled_vs_numpy_kernel_time_ratio": ratio,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def run_pass(ops, tracer=None) -> tuple[list[float], int, list[float], list[float]]:
    """One pass over the ops, each bracketed by reference loads.

    Returns the per-op seconds scaled to the reference speed, the number of
    failed ops, the reference-load seconds and the raw per-op seconds.
    """
    from speed import NOMINAL_S, fresh_pages, reference_load_s

    fresh_pages()
    latencies, failed, loads, raw = [], 0, [reference_load_s()], []
    for op in ops:
        t0 = time.perf_counter()
        dt = None
        try:
            out = op.run() if tracer is None else tracer.run_op(op.run)
            dt = time.perf_counter() - t0
            ok = op.check(out) and (tracer is None or tracer.op_err_over_tol <= 1.0)
        except Exception:  # a failed op counts in fail_frac; the run goes on
            traceback.print_exc()
            ok = False
        if dt is None:
            dt = time.perf_counter() - t0
        loads.append(reference_load_s())
        latencies.append(dt * NOMINAL_S / min(loads[-2], loads[-1]))
        raw.append(dt)
        failed += not ok
    return latencies, failed, loads, raw


def percentile(values: list[float], pct: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def measure(workload, seconds: float):
    """Untraced passes until the time and sample floors are met.

    Returns the scaled latencies of each pass, the failed-op count, the
    reference-load seconds and the raw latencies of each pass.
    """
    passes, failed, loads, raw = [], 0, [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(passes) * len(workload.ops) < workload.min_ops:
        lat, f, ld, r = run_pass(workload.ops)
        passes.append(lat)
        failed += f
        loads += ld
        raw.append(r)
    return passes, failed, loads, raw


def latency_metrics(passes: list[list[float]], tail_pct: float) -> dict[str, tuple[float, str]]:
    latencies = [t for lat in passes for t in lat]
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        # median of per-pass medians: table_ref has eight ops per pass, so
        # the pooled median would sit in the gap between two rows
        "op_ms_p50": (1e3 * statistics.median(statistics.median(lat) for lat in passes), "ms"),
        "op_ms_tail": (1e3 * percentile(latencies, tail_pct), "ms"),
    }


def measure_traced(workload, seconds: float):
    """Traced passes until --seconds have gone by.

    Returns the tracers and the failed-op count.
    """
    from tracer import Tracer

    tracers, failed = [], 0
    t0 = time.perf_counter()
    while not tracers or time.perf_counter() - t0 < seconds:
        tracers.append(Tracer())
        failed += run_pass(workload.ops, tracers[-1])[1]
    return tracers, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    # single-threaded numeric libraries, here and in the probes
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # One CPU for this process and its probes, so that an op and the
    # reference loads bracketing it run on the same CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "qhotunnel" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]

    sys.path.insert(0, str(SRC))
    import qhotunnel

    if Path(qhotunnel.__file__).resolve().parent != SRC / "qhotunnel":
        print(f"error: imported qhotunnel from {qhotunnel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    record = {"workload": args.workload, "trace": args.trace, "provenance": provenance(args.seed)}
    attempted = SETUP_REPEATS + len(workload.ops)
    failed = sum(not ok for *_, ok in setups)
    OUT.mkdir(exist_ok=True)

    from tracer import Tracer

    # The warm-up pass is traced in both modes, so that every run checks
    # quadrature.err_over_tol <= 1 for every op.
    cold = Tracer()
    f = run_pass(workload.ops, cold)[1]
    failed += f
    if args.trace:
        from tracer import layer_metrics, span_cost_s, write_spans

        traced, f2 = measure_traced(workload, args.seconds)
        failed += f2
        attempted += len(workload.ops) * len(traced)
        counts = [t.counts() for t in traced]
        counts_repeat = all(c == counts[0] for c in counts)
        metrics = {
            "import.s": (statistics.median(s[2] for s in setups), "s"),
            **layer_metrics(traced, cold, span_cost_s()),
        }
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json", traced)
        record["details"] = {"traced_passes": len(traced), "counts": counts[0],
                             "counts_repeat": counts_repeat}
        correct = failed == 0 and counts_repeat
    else:
        passes, f2, loads, raw = measure(workload, args.seconds)
        failed += f2
        attempted += len(workload.ops) * len(passes)
        metrics = {
            "setup_s": (statistics.median(s[0] for s in setups), "s"),
            **latency_metrics(passes, workload.tail_pct),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        # The same metrics from unscaled times, for comparison.
        raw_metrics = {
            "setup_s": statistics.median(s[1] for s in setups),
            **{k: v for k, (v, _) in latency_metrics(raw, workload.tail_pct).items()},
        }
        record["details"] = {
            "tail_percentile": workload.tail_pct, "samples": len(workload.ops) * len(passes),
            "passes": len(passes), "reference_load_ms_p50": 1e3 * statistics.median(loads),
            "raw": raw_metrics,
        }
        record["samples_s"] = {
            "setup": [s[0] for s in setups], "setup_raw": [s[1] for s in setups],
            "op": passes, "op_raw": raw, "reference_load": loads,
        }
        correct = failed == 0
    record["details"]["fail_frac"] = failed / attempted

    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>14.6g} {unit}")
    for key in ("provenance", "details"):
        print(f"{key} {json.dumps(record[key])}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**record, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
