"""Micro-benchmarks: individual kernels, fast vs seed reference.

Times conv2d forward / forward+backward, instance norm, pooling, softmax,
one ConvNet block (``conv_block``: Conv -> Norm -> ReLU -> Pool) forward+
backward, the raw im2col/col2im primitives, and one full
``parameter_gradients`` pass — each in fast-kernel mode and in
:func:`repro.nn.kernels.reference_mode` (the preserved seed
implementations) — and appends the measured
seconds-per-call and speedups to ``bench_results/micro_kernels.json``.

Usage::

    PYTHONPATH=src python benchmarks/micro/bench_kernels.py [--repeats N]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

import numpy as np

from repro.nn import ConvNet, kernels
from repro.nn import functional as F
from repro.nn.losses import cross_entropy
from repro.nn.tensor import Tensor
from repro.obs import collect_runtime_counters

RESULTS_PATH = (pathlib.Path(__file__).resolve().parents[2]
                / "bench_results" / "micro_kernels.json")

# CIFAR-scale shapes: the paper's 32x32 inputs, ConvNet width 16, batch 128.
N, C, HW, OC = 128, 16, 32, 16


def best_of(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn()`` (min filters scheduler noise)."""
    fn()  # warm up caches and plans
    return min(timeit_once(fn) for _ in range(repeats))


def timeit_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def merge_results(section: str, payload: dict) -> None:
    """Merge ``payload`` under ``section`` in the shared JSON file.

    Besides refreshing the snapshot, every merge appends the section's
    flat metrics as one line of the append-only bench history
    (``bench_results/bench_history.jsonl``), which ``python -m repro obs
    regress`` compares against the trailing baseline.
    """
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    data = {}
    if RESULTS_PATH.exists():
        data = json.loads(RESULTS_PATH.read_text())
    data[section] = payload
    data.setdefault("meta", {})["platform"] = platform.platform()
    data["meta"]["numpy"] = np.__version__
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    _append_history(section, data)


def _append_history(section: str, data: dict) -> None:
    import os

    from repro.obs.regress import (HISTORY_FILENAME, append_history,
                                   metrics_from_snapshot)

    metrics = metrics_from_snapshot(data, sections=(section,))
    if not metrics:
        return
    # The nn kernels have no intra-op parallelism: one thread per process.
    tags = {"platform": data["meta"]["platform"],
            "numpy": data["meta"]["numpy"],
            "threads": 1,
            "cpu_count": os.cpu_count()}
    append_history(RESULTS_PATH.parent / HISTORY_FILENAME, section,
                   metrics, tags)


def timed_pair(fn, repeats: int) -> dict:
    """Time ``fn`` with fast kernels and in seed reference mode."""
    kernels.set_fast_kernels(True)
    fast = best_of(fn, repeats)
    with kernels.reference_mode():
        ref = best_of(fn, repeats)
    return {"fast_s": fast, "seed_s": ref,
            "speedup": ref / fast if fast > 0 else float("inf")}


def make_cases(rng: np.random.Generator) -> dict:
    x = Tensor(rng.standard_normal((N, C, HW, HW)).astype(np.float32),
               requires_grad=True)
    w = Tensor(rng.standard_normal((OC, C, 3, 3)).astype(np.float32),
               requires_grad=True)
    b = Tensor(rng.standard_normal((OC,)).astype(np.float32),
               requires_grad=True)
    xr = rng.standard_normal((N, C, HW, HW)).astype(np.float32)
    g = np.ones((N, OC, HW, HW), dtype=np.float32)

    def conv_fwd():
        F.conv2d(Tensor(x.data), Tensor(w.data), Tensor(b.data),
                 stride=1, padding=1)

    def conv_fwd_bwd():
        out = F.conv2d(x, w, b, stride=1, padding=1)
        out.backward(g)
        x.zero_grad(); w.zero_grad(); b.zero_grad()

    def norm_fwd_bwd():
        out = F.instance_norm2d(x)
        out.backward(np.ones_like(out.data))
        x.zero_grad()

    def avg_pool_fwd_bwd():
        out = F.avg_pool2d(x, 2)
        out.backward(np.ones_like(out.data))
        x.zero_grad()

    def max_pool_fwd_bwd():
        out = F.max_pool2d(x, 2)
        out.backward(np.ones_like(out.data))
        x.zero_grad()

    gamma = Tensor(np.ones(OC, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(OC, dtype=np.float32), requires_grad=True)

    def convnet_block_fwd_bwd():
        out = F.conv_block(x, w, b, gamma, beta)
        out.backward(np.ones_like(out.data))
        for t in (x, w, b, gamma, beta):
            t.zero_grad()

    def softmax_fwd_bwd():
        flat = Tensor(x.data.reshape(N, -1)[:, :64], requires_grad=True)
        out = F.log_softmax(flat)
        out.backward(np.ones_like(out.data))

    def im2col_col2im():
        plan = kernels.get_conv_plan(N, C, HW, HW, 3, 3, 1, 1)
        cols = kernels.im2col(xr, plan)
        return kernels.col2im(cols.reshape(plan.cols_shape), plan)

    def im2col_col2im_seed():
        cols = kernels.im2col_reference(xr, 3, 3, 1, 1)
        return kernels.col2im_reference(cols, (N, C, HW, HW), 3, 3, 1, 1)

    return {
        "conv2d_fwd": conv_fwd,
        "conv2d_fwd_bwd": conv_fwd_bwd,
        "instance_norm_fwd_bwd": norm_fwd_bwd,
        "avg_pool2d_fwd_bwd": avg_pool_fwd_bwd,
        "max_pool2d_fwd_bwd": max_pool_fwd_bwd,
        "convnet_block_fwd_bwd": convnet_block_fwd_bwd,
        "log_softmax_fwd_bwd": softmax_fwd_bwd,
        "_im2col_col2im": (im2col_col2im, im2col_col2im_seed),
    }


def bench_parameter_gradients(rng: np.random.Generator, repeats: int) -> dict:
    from repro.condensation.matching import parameter_gradients
    model = ConvNet(3, 10, HW, width=OC, depth=3,
                    rng=np.random.default_rng(7))
    bx = rng.standard_normal((N, 3, HW, HW)).astype(np.float32)
    by = rng.integers(0, 10, N)

    def one_pass():
        parameter_gradients(model, bx, by)

    return timed_pair(one_pass, repeats)


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-N repetitions per case")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    results: dict[str, dict] = {}
    for name, fn in make_cases(rng).items():
        if isinstance(fn, tuple):  # primitives with distinct seed callable
            fast_fn, seed_fn = fn
            kernels.set_fast_kernels(True)
            fast = best_of(fast_fn, args.repeats)
            seed = best_of(seed_fn, args.repeats)
            results[name.lstrip("_")] = {
                "fast_s": fast, "seed_s": seed, "speedup": seed / fast}
        else:
            results[name] = timed_pair(fn, args.repeats)
    results["parameter_gradients"] = bench_parameter_gradients(rng, args.repeats)
    kernels.set_fast_kernels(True)

    payload = {"shape": {"batch": N, "channels": C, "hw": HW, "out_channels": OC},
               "repeats": args.repeats, "cases": results,
               "counters": collect_runtime_counters(emit=False)}
    merge_results("kernels", payload)

    width = max(len(k) for k in results)
    print(f"{'case'.ljust(width)}  {'fast':>9}  {'seed':>9}  speedup")
    for name, row in results.items():
        print(f"{name.ljust(width)}  {row['fast_s'] * 1e3:8.2f}ms "
              f"{row['seed_s'] * 1e3:9.2f}ms  {row['speedup']:6.2f}x")
    print(f"[saved to {RESULTS_PATH}]")
    return payload


if __name__ == "__main__":
    main()
