"""Micro-benchmarks: individual kernels, fast vs seed reference.

Times conv2d forward / forward+backward, instance norm, average pooling,
log-softmax, one ConvNet block (``conv_block``: Conv -> Norm -> ReLU ->
Pool) forward+backward and a conv's data movement (im2col, then the input
gradient's matmul and col2im) at the retrain shapes of the two stream
benchmarks, each next to its preserved seed implementation in
:mod:`tests.nn.reference` (the block next to the seed ops composed in
sequence), plus one full
``parameter_gradients`` pass (fast only) and the closed-form gradient
distance ``distance_and_grad`` (next to the autodiff graph of
``gradient_distance``).  Appends the measured
seconds-per-call and speedups to ``bench_results/micro_kernels.json``,
each fast timing with the :func:`host_probe` time taken next to it, which
``repro obs regress`` scales the timing by.

Usage::

    PYTHONPATH=src python benchmarks/micro/bench_kernels.py [--repeats N]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

import numpy as np

from repro.nn import ConvNet, kernels
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.obs import collect_runtime_counters

REPO = pathlib.Path(__file__).resolve().parents[2]
RESULTS_PATH = REPO / "bench_results" / "micro_kernels.json"

# The seed oracle lives with the tests, outside the runtime package.
sys.path.insert(0, str(REPO))
from tests.nn import reference  # noqa: E402

# CIFAR-scale shapes: the paper's 32x32 inputs, ConvNet width 16, batch 128.
N, C, HW, OC = 128, 16, 32, 16
# (batch, channels, size) of a conv input in the stream benchmarks'
# retraining: the herding workload's second block (16 px input) and the
# deco workload's first block (32 px input, one micro-batch).
DATA_MOVEMENT_SHAPES = ((18, 16, 8), (5, 3, 32))


_PROBE_RNG = np.random.default_rng(2024)
_PROBE_X = _PROBE_RNG.standard_normal((N, C, HW, HW)).astype(np.float32)
_PROBE_W = _PROBE_RNG.standard_normal((OC, C * 9)).astype(np.float32)


def host_probe() -> float:
    """Seconds of a fixed numpy workload shaped like the kernels' that
    runs no repository code: an elementwise pass and a reduction over a
    batch-128 activation, a 3x3 window copy of a quarter of it, and one
    batched matmul on those columns.  Its time moves with the host's
    speed, not with the program's, so a timing divided by the probe taken
    next to it compares across host phases."""
    start = time.perf_counter()
    y = np.maximum(_PROBE_X * np.float32(0.9) + np.float32(0.1), 0.0)
    y.sum(axis=(2, 3))
    padded = np.pad(y[:N // 4], ((0, 0), (0, 0), (1, 1), (1, 1)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3),
                                                       axis=(2, 3))
    cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))
    np.matmul(_PROBE_W, cols.reshape(N // 4, C * 9, HW * HW))
    return time.perf_counter() - start


def best_of(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn()`` (min filters scheduler noise)."""
    fn()  # warm up caches
    return min(timeit_once(fn) for _ in range(repeats))


def probed_best_of(fn, repeats: int) -> dict:
    """:func:`best_of` as ``fast_s``, with ``probe_s``: the best of the
    :func:`host_probe` times taken right before each repeat."""
    fn()
    probes, times = [], []
    for _ in range(repeats):
        probes.append(host_probe())
        times.append(timeit_once(fn))
    return {"fast_s": min(times), "probe_s": min(probes)}


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
                                   metrics_from_snapshot,
                                   probes_from_snapshot)

    metrics = metrics_from_snapshot(data, sections=(section,))
    if not metrics:
        return
    # The nn kernels have no intra-op parallelism: one thread per process.
    tags = {"platform": data["meta"]["platform"],
            "numpy": data["meta"]["numpy"],
            "threads": 1,
            "cpu_count": os.cpu_count()}
    append_history(RESULTS_PATH.parent / HISTORY_FILENAME, section,
                   metrics, tags,
                   probes_from_snapshot(data, sections=(section,)))


def timed_pair(fast_fn, seed_fn, repeats: int) -> dict:
    """Time a fast callable (with its host probes) next to its seed
    counterpart."""
    row = probed_best_of(fast_fn, repeats)
    seed = best_of(seed_fn, repeats)
    return {**row, "seed_s": seed,
            "speedup": seed / row["fast_s"] if row["fast_s"] > 0
            else float("inf")}


def fwd_bwd(op, *inputs):
    """A callable running ``op(*inputs)`` forward, then backward from a
    ones seed, then clearing the inputs' gradients."""
    def run():
        out = op(*inputs)
        out.backward(np.ones_like(out.data))
        for t in inputs:
            t.zero_grad()
    return run


def seed_block(x, w, b, gamma, beta):
    """The ConvNet block composed from the seed ops."""
    h = reference.instance_norm2d(
        reference.conv2d(x, w, b, stride=1, padding=1), gamma, beta)
    return reference.avg_pool2d(h.relu(), 2)


def make_cases(rng: np.random.Generator) -> dict:
    """``name -> (fast callable, seed callable)`` for every op case."""
    x = Tensor(rng.standard_normal((N, C, HW, HW)).astype(np.float32),
               requires_grad=True)
    w = Tensor(rng.standard_normal((OC, C, 3, 3)).astype(np.float32),
               requires_grad=True)
    b = Tensor(rng.standard_normal((OC,)).astype(np.float32),
               requires_grad=True)
    gamma = Tensor(np.ones(OC, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(OC, dtype=np.float32), requires_grad=True)
    flat = Tensor(x.data.reshape(N, -1)[:, :64], requires_grad=True)

    def conv_fwd(conv2d):
        return lambda: conv2d(Tensor(x.data), Tensor(w.data), Tensor(b.data),
                              stride=1, padding=1)

    def conv_fwd_bwd(conv2d):
        return fwd_bwd(lambda *t: conv2d(*t, stride=1, padding=1), x, w, b)

    cases = {
        "conv2d_fwd": (conv_fwd(F.conv2d), conv_fwd(reference.conv2d)),
        "conv2d_fwd_bwd": (conv_fwd_bwd(F.conv2d),
                           conv_fwd_bwd(reference.conv2d)),
        "instance_norm_fwd_bwd": (fwd_bwd(F.instance_norm2d, x),
                                  fwd_bwd(reference.instance_norm2d, x)),
        "avg_pool2d_fwd_bwd": (fwd_bwd(F.avg_pool2d, x),
                               fwd_bwd(reference.avg_pool2d, x)),
        "convnet_block_fwd_bwd": (fwd_bwd(F.conv_block, x, w, b, gamma, beta),
                                  fwd_bwd(seed_block, x, w, b, gamma, beta)),
        "log_softmax_fwd_bwd": (fwd_bwd(F.log_softmax, flat),
                                fwd_bwd(reference.log_softmax, flat)),
    }
    for n, c, hw in DATA_MOVEMENT_SHAPES:
        cases[f"im2col_col2im_{n}x{c}x{hw}"] = data_movement(rng, n, c, hw)
    return cases


def data_movement(rng: np.random.Generator, n: int, c: int, hw: int):
    """``(fast, seed)`` callables for a 3x3, pad-1 conv's data movement on
    an ``(n, c, hw, hw)`` input: im2col, then the input gradient of an
    ``OC``-channel output gradient (its matmul and col2im)."""
    x = rng.standard_normal((n, c, hw, hw)).astype(np.float32)
    w = rng.standard_normal((OC, c, 3, 3)).astype(np.float32)
    g = rng.standard_normal((n, OC, hw, hw)).astype(np.float32)

    def fast():
        kernels.im2col(x, 3, 3, 1, 1)
        return kernels.col2im(g, w, x.shape, 1, 1)

    def seed():
        reference.im2col(x, 3, 3, 1, 1)
        dcols = np.matmul(w.reshape(OC, -1).T, g.reshape(n, OC, -1))
        return reference.col2im(dcols, x.shape, 3, 3, 1, 1)

    return fast, seed


def bench_parameter_gradients(rng: np.random.Generator, repeats: int) -> dict:
    from repro.condensation.matching import parameter_gradients
    model = ConvNet(3, 10, HW, width=OC, depth=3,
                    rng=np.random.default_rng(7))
    bx = rng.standard_normal((N, 3, HW, HW)).astype(np.float32)
    by = rng.integers(0, 10, N)

    return probed_best_of(lambda: parameter_gradients(model, bx, by), repeats)


def bench_distance_and_grad(rng: np.random.Generator, repeats: int) -> dict:
    """``D`` and ``grad_{g_syn} D`` for one ConvNet g_syn/g_real pair:
    the closed form next to backpropagating the ``gradient_distance``
    graph it reproduces."""
    from repro.condensation.matching import (distance_and_grad_wrt_gsyn,
                                             parameter_gradients)
    from repro.nn.losses import gradient_distance
    model = ConvNet(3, 10, HW, width=OC, depth=3,
                    rng=np.random.default_rng(7))
    g_syn, _ = parameter_gradients(
        model, rng.standard_normal((20, 3, HW, HW)).astype(np.float32),
        np.arange(20) % 10)
    g_real, _ = parameter_gradients(
        model, rng.standard_normal((N, 3, HW, HW)).astype(np.float32),
        rng.integers(0, 10, N))

    def graph():
        wrapped = [Tensor(g, requires_grad=True) for g in g_syn]
        gradient_distance(wrapped, g_real).backward()
        return [t.grad for t in wrapped]

    return timed_pair(lambda: distance_and_grad_wrt_gsyn(g_syn, g_real),
                      graph, repeats)


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-N repetitions per case")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    results: dict[str, dict] = {}
    for name, (fast_fn, seed_fn) in make_cases(rng).items():
        results[name] = timed_pair(fast_fn, seed_fn, args.repeats)
    results["parameter_gradients"] = bench_parameter_gradients(rng, args.repeats)
    results["distance_and_grad"] = bench_distance_and_grad(rng, args.repeats)

    payload = {"shape": {"batch": N, "channels": C, "hw": HW, "out_channels": OC},
               "repeats": args.repeats, "cases": results,
               "counters": collect_runtime_counters(emit=False)}
    merge_results("kernels", payload)

    width = max(len(k) for k in results)
    print(f"{'case'.ljust(width)}  {'fast':>9}  {'seed':>9}  speedup")
    for name, row in results.items():
        seed = (f"{row['seed_s'] * 1e3:9.2f}ms  {row['speedup']:6.2f}x"
                if "seed_s" in row else f"{'-':>11}  {'-':>6}")
        print(f"{name.ljust(width)}  {row['fast_s'] * 1e3:8.2f}ms {seed}")
    print(f"[saved to {RESULTS_PATH}]")
    return payload


if __name__ == "__main__":
    main()
