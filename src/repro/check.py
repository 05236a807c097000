"""Single-command verification: tests + perf smoke + micro-bench smoke.

``repro-check`` (registered in ``pyproject.toml``) is the ``make check``
equivalent for this repo.  It runs, in order:

1. the tier-1 test suite (``python -m pytest -q``);
2. the ``perf_smoke`` tripwires (``pytest -m perf_smoke``);
3. the crash/resume selfcheck (``python -m repro.persist.selfcheck``): a
   2-job grid is crashed after its first completed point and resumed; the
   merged results must be bit-identical to a clean serial run;
4. the observability selfcheck (``python -m repro.obs.selfcheck``): a
   2-job grid runs with telemetry on; its merged worker shards must
   aggregate to the serial run's counters, byte-deterministically;
5. the numerical-health selfcheck (``python -m
   repro.obs.health_selfcheck``): an injected NaN in a matcher pass must
   be detected and attributed within one segment under every policy, a
   clean micro run must record zero incidents, and ``repro obs report``
   must render a self-contained HTML report from its telemetry;
6. the memory-ledger selfcheck (``python -m repro.obs.ledger_selfcheck``):
   ledger byte accounts must agree with tracemalloc within tolerance,
   jobs=2 memory footprints must equal serial, and exported Chrome traces
   must pass schema validation with memory counter tracks;
7. the factorized-storage selfcheck
   (``python -m repro.buffer.factorized_selfcheck``): the f=2 buffer's
   payload must be exactly ``ceil(H/f)*ceil(W/f)/(H*W)`` of the f=1
   payload, ``encode_grad`` must be the exact decode transpose, and state
   round-trips must be byte-for-byte with mismatched decode factors
   rejected;
8. a one-repeat pass of the micro-benchmarks (kernel cases, one condense
   segment, and the f=1 vs f=2 factorized accuracy-per-MiB comparison),
   which also refreshes the counter snapshots attached to
   ``bench_results/micro_kernels.json`` and appends to the bench history;
9. a bench-history regression dry-run (``python -m repro obs regress
   --dry-run``): the trajectory verdict is printed; regressions are
   reported but only fail ``repro-check`` when ``--strict-bench`` is set.

The pytest and micro-bench steps need the repo checkout (``tests/`` and
``benchmarks/`` are not installed); they are skipped with a notice when run
from elsewhere.

Usage::

    PYTHONPATH=src python -m repro.check [--skip-bench] [--skip-tests]
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys

__all__ = ["main"]


def _repo_root() -> pathlib.Path | None:
    """The repo checkout to verify: cwd if it has tests/, else the source tree."""
    for candidate in (pathlib.Path.cwd(),
                      pathlib.Path(__file__).resolve().parents[2]):
        if (candidate / "tests").is_dir() and (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def _run(cmd: list[str], cwd: pathlib.Path, title: str) -> int:
    print(f"== {title}: {' '.join(cmd)}")
    env = dict(os.environ)
    src = str(cwd / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    result = subprocess.run(cmd, cwd=cwd, env=env)
    status = "ok" if result.returncode == 0 else f"FAILED ({result.returncode})"
    print(f"== {title}: {status}\n")
    return result.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-tests", action="store_true",
                        help="skip the pytest suites")
    parser.add_argument("--skip-bench", action="store_true",
                        help="skip the micro-benchmark smoke pass")
    parser.add_argument("--bench-repeats", type=int, default=1,
                        help="best-of-N repeats for the micro benches")
    parser.add_argument("--strict-bench", action="store_true",
                        help="fail repro-check on bench-history "
                             "regressions instead of only reporting them")
    args = parser.parse_args(argv)

    root = _repo_root()
    if root is None:
        print("repro-check: no repo checkout found (tests/ + pyproject.toml); "
              "run from the repository root")
        return 2

    failures = 0
    if not args.skip_tests:
        failures += _run([sys.executable, "-m", "pytest", "-q"], root,
                         "tier-1 tests") != 0
        failures += _run([sys.executable, "-m", "pytest", "-q",
                          "-m", "perf_smoke"], root, "perf smoke") != 0
        # Resume leg: crash a 2-job grid after its first completed point,
        # then resume it and assert the merged results are bit-identical
        # to a clean serial run (see repro.persist.selfcheck).
        failures += _run([sys.executable, "-m", "repro.persist.selfcheck"],
                         root, "crash/resume selfcheck") != 0
        # Observability leg: a 2-job grid with telemetry on must produce
        # merged worker shards whose aggregated counters equal the serial
        # run's (see repro.obs.selfcheck).
        failures += _run([sys.executable, "-m", "repro.obs.selfcheck"],
                         root, "observability selfcheck") != 0
        # Health leg: an injected NaN in a matcher pass must be caught and
        # attributed within one segment under every policy, a clean micro
        # run must record zero incidents, and the run report must render
        # self-contained (see repro.obs.health_selfcheck).
        failures += _run([sys.executable, "-m",
                          "repro.obs.health_selfcheck"],
                         root, "numerical-health selfcheck") != 0
        # Ledger leg: the memory ledger must agree with tracemalloc, the
        # jobs=2 footprints must equal serial, and both runs must export
        # schema-valid Perfetto traces with memory counter tracks (see
        # repro.obs.ledger_selfcheck).
        failures += _run([sys.executable, "-m",
                          "repro.obs.ledger_selfcheck"],
                         root, "memory ledger + trace export selfcheck") != 0
        # Factorized-storage leg: the f=2 buffer's byte footprint must be
        # exactly 1/f^2 of full resolution, and decode/encode_grad must be
        # an exact transpose pair (see repro.buffer.factorized_selfcheck).
        failures += _run([sys.executable, "-m",
                          "repro.buffer.factorized_selfcheck"],
                         root, "factorized storage selfcheck") != 0

    if not args.skip_bench:
        bench_dir = root / "benchmarks" / "micro"
        if bench_dir.is_dir():
            repeats = str(args.bench_repeats)
            failures += _run([sys.executable,
                              str(bench_dir / "bench_kernels.py"),
                              "--repeats", repeats], root,
                             "micro-bench kernels") != 0
            failures += _run([sys.executable,
                              str(bench_dir / "bench_condense_step.py"),
                              "--repeats", repeats], root,
                             "micro-bench condense step") != 0
            failures += _run([sys.executable,
                              str(bench_dir / "bench_factorized.py")], root,
                             "micro-bench factorized storage") != 0
            # Trajectory verdict over the history the benches just
            # appended to.  A one-repeat smoke pass is noisy, so the
            # default is a dry run — visible, never fatal — unless the
            # caller opts into --strict-bench.
            regress_cmd = [sys.executable, "-m", "repro", "obs", "regress"]
            if not args.strict_bench:
                regress_cmd.append("--dry-run")
            failures += _run(regress_cmd, root,
                             "bench-history regression check") != 0
        else:
            print(f"== micro-bench: skipped (no {bench_dir})")

    if failures:
        print(f"repro-check: {failures} step(s) failed")
        return 1
    print("repro-check: all steps passed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
