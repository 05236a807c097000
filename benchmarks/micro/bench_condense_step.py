"""End-to-end micro-benchmark: one full ``OneStepMatcher.condense`` segment.

This is the acceptance benchmark for the kernel layer: the paper's
condensation configuration (ConvNet depth 3, 32x32 inputs, real batch 128,
10 classes at 10 images per class, feature-discrimination weight 0.1).
Two fixed cases run it: every class active (``fast_s``), and a "stream
segment" with 2 of the 10 classes active (``cases.stream_segment``), whose
discrimination pass also encodes passive rows of the other classes.
The best-of-N time is kept so scheduler noise cannot inflate it, and one
more untimed all-classes segment records the traced peak memory.  Results
are appended to ``bench_results/micro_kernels.json``, each case with the
best host probe (``bench_kernels.host_probe``) taken right before its
timed segments, which ``repro obs regress`` scales its time by.

Usage::

    PYTHONPATH=src python benchmarks/micro/bench_condense_step.py [--repeats N]
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np

from repro.buffer.buffer import SyntheticBuffer
from repro.condensation.one_step import OneStepMatcher
from repro.nn.convnet import ConvNet
from repro.obs import collect_runtime_counters

try:  # package import (pytest) vs direct script execution
    from .bench_kernels import RESULTS_PATH, host_probe, merge_results
except ImportError:  # pragma: no cover - script mode
    from bench_kernels import RESULTS_PATH, host_probe, merge_results

CLASSES, IPC, HW, WIDTH, DEPTH, BATCH = 10, 10, 32, 16, 3, 128
#: The classes a stream segment activates in the "stream segment" case.
STREAM_CLASSES = (3, 7)


def run_segment(iterations: int,
                active: tuple[int, ...] = tuple(range(CLASSES))) -> float:
    """One condense segment over the ``active`` classes; returns its wall
    time in seconds."""
    rng = np.random.default_rng(0)
    buf = SyntheticBuffer(CLASSES, IPC, (3, HW, HW))
    buf.images[:] = rng.standard_normal(buf.images.shape).astype(np.float32)
    real_x = rng.standard_normal((2 * BATCH, 3, HW, HW)).astype(np.float32)
    real_y = rng.integers(0, CLASSES, 2 * BATCH)
    matcher = OneStepMatcher(iterations=iterations, alpha=0.1,
                             batch_size=BATCH)
    factory = lambda r: ConvNet(3, CLASSES, HW, width=WIDTH, depth=DEPTH, rng=r)
    deployed = ConvNet(3, CLASSES, HW, width=WIDTH, depth=DEPTH,
                       rng=np.random.default_rng(5))
    t0 = time.perf_counter()
    matcher.condense(buf, list(active), real_x, real_y, None,
                     model_factory=factory, rng=np.random.default_rng(1),
                     deployed_model=deployed)
    return time.perf_counter() - t0


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N repetitions")
    parser.add_argument("--iterations", type=int, default=2,
                        help="matcher iterations per timed segment")
    args = parser.parse_args(argv)

    def probed_runs(*case) -> tuple[list[float], float]:
        """``repeats`` timed segments, and the best of the host probes
        taken right before each."""
        run_segment(*case)  # warm up (page faults)
        times, probes = [], []
        for _ in range(args.repeats):
            probes.append(host_probe())
            times.append(run_segment(*case))
        return times, min(probes)

    fast_times, fast_probe = probed_runs(args.iterations)
    stream_times, stream_probe = probed_runs(args.iterations, STREAM_CLASSES)

    # Peak-memory pass: one untimed segment under tracemalloc.  The gauge
    # lands in the bench history, where `repro obs regress` judges it like
    # the timings.
    tracemalloc.start()
    try:
        run_segment(args.iterations)
        _, peak_traced = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    fast = min(fast_times)
    payload = {
        "config": {"classes": CLASSES, "ipc": IPC, "hw": HW, "width": WIDTH,
                   "depth": DEPTH, "batch": BATCH, "alpha": 0.1,
                   "iterations": args.iterations},
        "repeats": args.repeats,
        "fast_s": fast,
        "fast_all_s": fast_times,
        "probe_s": fast_probe,
        "cases": {"stream_segment": {"active_classes": list(STREAM_CLASSES),
                                     "fast_s": min(stream_times),
                                     "fast_all_s": stream_times,
                                     "probe_s": stream_probe}},
        "peak_traced_bytes": int(peak_traced),
        "counters": collect_runtime_counters(emit=False),
    }
    merge_results("condense_step", payload)
    print(f"condense segment (ConvNet depth {DEPTH}, {HW}x{HW}, "
          f"batch {BATCH}, {args.iterations} iters):")
    print(f"  segment time : {fast:.3f} s (best of {args.repeats})")
    print(f"  stream segment ({len(STREAM_CLASSES)} of {CLASSES} classes): "
          f"{min(stream_times):.3f} s")
    print(f"  peak traced  : {peak_traced / 2 ** 20:.1f} MiB")
    print(f"[saved to {RESULTS_PATH}]")
    return payload


if __name__ == "__main__":
    main()
