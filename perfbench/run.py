#!/usr/bin/env python3
"""End-to-end stream benchmark of the DECO on-device learner.

Runs one workload (see ``workloads.py``) in this process through the
public experiment API: timed set-up, one untimed warm-up stream pass, then
closed-loop stream passes (the next segment is fed only once the previous
one is done) for ``--seconds``.  The last line of standard output is one
JSON object::

    {"correct": true, "attempted": 360, "failed": 0,
     "metrics": {"segment_ms_p50": {"value": 153.2, "unit": "ms"}, ...}}

``--trace 0`` reports the end-to-end metrics from untraced passes.  Their
times are the process's CPU time (all threads), scaled to a nominal host
speed by a fixed probe run between the timed events (see ``harness.py``),
so that neither a shared host's scheduler nor its drift in speed reads as
a change of the program.
``--trace 1`` alternates untraced and traced passes of the same stream,
reports the per-layer metrics of the traced ones, prints a "where the time
went" self-time table to standard error and writes the spans as a Chrome
trace-event file under ``.perfbench_work/``.  ``--workload all`` runs every
workload in its own fresh process and prints one table.

The exit code is 0 only when the correctness gate passes: no segment
raised, left a non-finite buffer or model parameter, or recorded a health
incident; byte accounting adds up; accuracy is above chance; and every
repeat of a stream reproduced its first outcome exactly.

Usage::

    python3 perfbench/run.py --workload deco-imagenet10-f2 --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"

# Native thread pools pinned to one thread before numpy loads, so the
# repository's own intra-op pool is the process's only parallelism.
POOL_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
             "BLIS_NUM_THREADS")
# No stream pass starts that would end after the process is this old, so
# a run ends well inside three minutes even on a slow host.
PASS_START_DEADLINE_S = 140.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", default="smoke",
                        help="experiment profile (micro for a quick check)")
    return parser.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: dict) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, allow_nan=False)


def run_one(args, workload) -> int:
    started = time.perf_counter()
    for var in POOL_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_NUM_THREADS"] = str(workload.threads)
    sys.path.insert(0, str(ROOT / "src"))

    from perfbench import harness
    from perfbench.tracer import Tracer

    tracer = Tracer() if args.trace else None
    deadline = started + PASS_START_DEADLINE_S
    with harness.StreamBench(workload, args.seed, profile=args.profile,
                             work_dir=str(WORK_DIR), tracer=tracer) as bench:
        for _ in range(harness.SETUP_REPS):
            bench.set_up()
        bench.stream_pass(0)  # warm-up, untimed
        if args.trace:
            traced, overhead = bench.run_traced(args.seconds, deadline)
        else:
            timed = bench.run_timed(args.seconds, deadline)

    problems = bench.problems
    passes, calib = bench.passes, bench.calib_s
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    print(f"[{workload.name} seed={args.seed} profile={args.profile}] "
          f"setup_s reps (wall): "
          f"{', '.join(f'{s:.3f}' for s in bench.setup_raw_s)}; "
          f"pass loop_s (wall, probes included): "
          f"{', '.join(f'{r.loop_s:.2f}' for r in passes)}; "
          f"host probe ms: median {statistics.median(calib) * 1e3:.2f}, "
          f"{min(calib) * 1e3:.2f}-{max(calib) * 1e3:.2f}; "
          f"divergence incidents: {[r.divergence for r in passes]}",
          file=sys.stderr)
    metrics: dict = {}
    if not problems:
        if args.trace:
            bench.final_acc()
            metrics, table = harness.per_layer_metrics(traced, overhead, calib)
            path = WORK_DIR / f"trace-{workload.name}-seed{args.seed}.json"
            doc = tracer.write(str(path), f"perfbench {workload.name}")
            problems += _validate_trace(doc)
            print(f"where the time went ({workload.name}, traced loop, "
                  f"self time): trace at {path}", file=sys.stderr)
            for name, self_s, share in table:
                print(f"  {name:<22} {self_s * 1e3 / len(traced):10.1f} "
                      f"ms/pass {share * 100:6.1f} %", file=sys.stderr)
        else:
            metrics = harness.end_to_end_metrics(bench, timed)
        for name, (value, _unit) in metrics.items():
            if not math.isfinite(value):
                problems.append(f"metric {name} is not finite")
                metrics[name] = (0.0, _unit)
    for problem in problems[:20]:
        print(f"FAIL: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}", file=sys.stderr)
    _stop_pools()
    print(_result_line(correct, max(attempted, 1), failed, metrics))
    return 0 if correct else 1


def _validate_trace(doc: dict) -> list[str]:
    from repro import obs
    validate = getattr(obs, "validate_trace", None)
    if validate is None:
        return []
    return [f"trace: {p}" for p in validate(doc)[:5]]


def _stop_pools() -> None:
    """Join the intra-op worker threads before the process exits."""
    try:
        from repro import parallel
        parallel.shutdown()
    except (ImportError, AttributeError):
        pass


def run_all(args) -> int:
    """Every workload in a fresh process; one table of end-to-end metrics."""
    from perfbench.workloads import WORKLOADS
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--profile", args.profile]
        proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = {"correct": False, "attempted": 1, "failed": 1,
                             "metrics": {}}
        if proc.returncode != 0:
            code = 1
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<32} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no repro package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT))
    if args.workload == "all":
        return run_all(args)
    from perfbench.workloads import get_workload
    try:
        workload = get_workload(args.workload)
    except KeyError as exc:
        return _fail(str(exc))
    return run_one(args, workload)


if __name__ == "__main__":
    sys.exit(main())
