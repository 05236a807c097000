"""Micro-benchmark: fused vs. unfused finite-difference evaluation.

Times a condense segment on the **micro profile's** learner shapes
(ConvNet depth 2, width 8, 8x8 inputs, 4 classes at 2 IPC, real batch 32
— small enough that the whole real set rides in one batch, as in the
micro learner runs) twice: with the fused FD engine (``REPRO_FD_FUSE``;
batched ±ε lanes) and with it switched off, which is exactly
the sequential five-pass path of the previous kernel generation.  Two
scopes are reported:

* ``fused_s`` / ``unfused_s`` — a whole condense segment (the honest
  end-to-end number: includes the matching passes the fusion cannot touch);
* ``fd_eval_fused_s`` / ``fd_eval_unfused_s`` — the FD evaluation alone
  (``finite_difference_matching_grad`` on the segment's shapes), where the
  ±ε batching shows up undiluted.

Runs are interleaved, best-of-N per mode.  Results merge into
``bench_results/micro_kernels.json`` under ``fd_fuse`` and append to the
bench history so ``python -m repro obs regress`` guards the win.

Usage::

    PYTHONPATH=src python benchmarks/micro/bench_fd_fuse.py [--repeats N]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.buffer.buffer import SyntheticBuffer
from repro.condensation import matching
from repro.condensation.one_step import OneStepMatcher
from repro.nn import kernels
from repro.nn.convnet import ConvNet
from repro.obs import collect_runtime_counters

try:  # package import (pytest) vs direct script execution
    from .bench_kernels import RESULTS_PATH, merge_results
except ImportError:  # pragma: no cover - script mode
    from bench_kernels import RESULTS_PATH, merge_results

CLASSES, IPC, HW, WIDTH, DEPTH, BATCH = 4, 2, 8, 8, 2, 32


def run_segment(iterations: int) -> float:
    """One condense segment on the micro-profile learner shapes."""
    rng = np.random.default_rng(0)
    buf = SyntheticBuffer(CLASSES, IPC, (3, HW, HW))
    buf.images[:] = rng.standard_normal(buf.images.shape).astype(np.float32)
    real_x = rng.standard_normal((BATCH, 3, HW, HW)).astype(np.float32)
    real_y = rng.integers(0, CLASSES, BATCH)
    matcher = OneStepMatcher(iterations=iterations, alpha=0.1)
    factory = lambda r: ConvNet(3, CLASSES, HW, width=WIDTH, depth=DEPTH, rng=r)
    deployed = ConvNet(3, CLASSES, HW, width=WIDTH, depth=DEPTH,
                       rng=np.random.default_rng(5))
    t0 = time.perf_counter()
    matcher.condense(buf, list(range(CLASSES)), real_x, real_y, None,
                     model_factory=factory, rng=np.random.default_rng(1),
                     deployed_model=deployed)
    return time.perf_counter() - t0


def run_fd_eval(evals: int) -> float:
    """``evals`` FD evaluations on the segment's synthetic-set shapes."""
    rng = np.random.default_rng(2)
    model = ConvNet(3, CLASSES, HW, width=WIDTH, depth=DEPTH,
                    rng=np.random.default_rng(3))
    syn_x = rng.standard_normal((CLASSES * IPC, 3, HW, HW)).astype(np.float32)
    syn_y = np.repeat(np.arange(CLASSES), IPC)
    direction = [rng.standard_normal(p.data.shape).astype(np.float32)
                 for p in model.parameters()]
    t0 = time.perf_counter()
    for _ in range(evals):
        matching.finite_difference_matching_grad(model, syn_x, syn_y,
                                                 direction)
    return time.perf_counter() - t0


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-N interleaved repetitions per mode")
    parser.add_argument("--iterations", type=int, default=8,
                        help="matcher iterations per timed segment")
    parser.add_argument("--fd-evals", type=int, default=50,
                        help="FD evaluations per timed fd-eval run")
    args = parser.parse_args(argv)

    kernels.set_fast_kernels(True)
    saved = kernels.fd_fuse_enabled()
    try:
        # Warm up both modes (plan cache, fuse probes + verdicts).
        kernels.set_fd_fuse(True)
        run_segment(args.iterations)
        run_fd_eval(1)
        kernels.set_fd_fuse(False)
        run_segment(args.iterations)
        run_fd_eval(1)

        seg_fused, seg_unfused = [], []
        eval_fused, eval_unfused = [], []
        for _ in range(args.repeats):
            kernels.set_fd_fuse(True)
            seg_fused.append(run_segment(args.iterations))
            eval_fused.append(run_fd_eval(args.fd_evals))
            kernels.set_fd_fuse(False)
            seg_unfused.append(run_segment(args.iterations))
            eval_unfused.append(run_fd_eval(args.fd_evals))

        kernels.set_fd_fuse(True)
        matching.reset_fd_fuse_stats()
        run_segment(args.iterations)  # counters for one fully-fused segment
        counters = collect_runtime_counters(emit=False)
    finally:
        kernels.set_fd_fuse(saved)

    fused, unfused = min(seg_fused), min(seg_unfused)
    fd_fused, fd_unfused = min(eval_fused), min(eval_unfused)
    payload = {
        "config": {"classes": CLASSES, "ipc": IPC, "hw": HW, "width": WIDTH,
                   "depth": DEPTH, "batch": BATCH, "alpha": 0.1,
                   "iterations": args.iterations, "fd_evals": args.fd_evals},
        "repeats": args.repeats,
        "fused_s": fused,
        "unfused_s": unfused,
        "fused_all_s": seg_fused,
        "unfused_all_s": seg_unfused,
        "speedup": unfused / fused if fused > 0 else float("inf"),
        "fd_eval_fused_s": fd_fused,
        "fd_eval_unfused_s": fd_unfused,
        "fd_eval_speedup": (fd_unfused / fd_fused if fd_fused > 0
                            else float("inf")),
        "counters": counters,
    }
    merge_results("fd_fuse", payload)
    print(f"fused FD engine (ConvNet depth {DEPTH}, {HW}x{HW}, "
          f"batch {BATCH}, {args.iterations} iters):")
    print(f"  segment fused   : {fused:.3f} s")
    print(f"  segment unfused : {unfused:.3f} s")
    print(f"  segment speedup : {unfused / fused:.2f}x")
    print(f"  fd-eval fused   : {fd_fused:.3f} s   ({args.fd_evals} evals)")
    print(f"  fd-eval unfused : {fd_unfused:.3f} s")
    print(f"  fd-eval speedup : {fd_unfused / fd_fused:.2f}x")
    print(f"[saved to {RESULTS_PATH}]")
    return payload


if __name__ == "__main__":
    main()
