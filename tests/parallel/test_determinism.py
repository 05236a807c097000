"""Bit-identity guarantees: thread counts and parallel runs never change results.

* BLAS threads — the conv contraction is a plain ``np.matmul``, so the
  only intra-op threads are the BLAS library's.  conv2d forward/backward
  and log-softmax produce bit-identical tensors and gradients with 1 vs 4
  BLAS threads, and so does a seeded end-to-end ``DECOLearner`` run (via
  ``run_method``); no op starts a thread of its own.
* Process sweep — a grid fanned out to worker processes returns results
  bit-identical to the serial loop, in the same order.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.experiments import prepare_experiment, run_method, run_method_grid
from repro.nn import functional as F
from repro.nn.tensor import Tensor


# ----------------------------------------------------------------------
# Micro-kernels
# ----------------------------------------------------------------------
def _conv_case(batch):
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((batch, 3, 16, 16)).astype(np.float32),
               requires_grad=True)
    w = Tensor(rng.standard_normal((12, 3, 3, 3)).astype(np.float32),
               requires_grad=True)
    b = Tensor(rng.standard_normal((12,)).astype(np.float32),
               requires_grad=True)
    out = F.conv2d(x, w, b, stride=1, padding=1)
    out.sum().backward()
    return out.data.copy(), x.grad.copy(), w.grad.copy(), b.grad.copy()


def test_conv2d_bit_identical_across_thread_counts(blas_threads):
    blas_threads(1)
    serial = _conv_case(64)
    blas_threads(4)
    threaded = _conv_case(64)
    for s, p in zip(serial, threaded):
        np.testing.assert_array_equal(s, p)


def test_small_batches_never_dispatch_to_the_pool(monkeypatch):
    # Every op runs on the calling thread: there is no shard pool, so no
    # batch size may start a thread of its own.
    started = []
    original = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    _conv_case(16)
    assert started == []


def test_log_softmax_bit_identical_across_thread_counts(blas_threads):
    rng = np.random.default_rng(5)
    data = rng.standard_normal((256, 256)).astype(np.float32)

    def run():
        x = Tensor(data.copy(), requires_grad=True)
        out = F.log_softmax(x)
        out.sum().backward()
        return out.data.copy(), x.grad.copy()

    blas_threads(1)
    s_out, s_grad = run()
    blas_threads(4)
    p_out, p_grad = run()
    np.testing.assert_array_equal(s_out, p_out)
    np.testing.assert_array_equal(s_grad, p_grad)


# ----------------------------------------------------------------------
# Seeded end-to-end learner run
# ----------------------------------------------------------------------
def _norm(v):
    # NaN-safe: vote_margin / retained_label_accuracy are NaN on some
    # segments, and NaN != NaN would make every fingerprint unequal.
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return v


def _history_fingerprint(result):
    return (result.final_accuracy,
            [sorted((k, _norm(v)) for k, v in d.items())
             for d in result.history.diagnostics])


def test_deco_learner_run_bit_identical_across_thread_counts(blas_threads):
    prepared = prepare_experiment("core50", "micro", seed=0)
    blas_threads(1)
    serial = run_method(prepared, "deco", 1, seed=0)
    blas_threads(2)
    threaded = run_method(prepared, "deco", 1, seed=0)
    assert _history_fingerprint(serial) == _history_fingerprint(threaded)


# ----------------------------------------------------------------------
# Process sweep vs serial loop
# ----------------------------------------------------------------------
def test_method_grid_bit_identical_serial_vs_processes():
    prepared = prepare_experiment("core50", "micro", seed=0)
    configs = [{"method": "deco", "ipc": ipc, "seed": 0} for ipc in (1, 2)]
    configs.append({"method": "random", "ipc": 1, "seed": 0})
    serial = run_method_grid(prepared, configs, jobs=1)
    fanned = run_method_grid(prepared, configs, jobs=2)
    assert [r.method for r in serial] == [r.method for r in fanned]
    for s, p in zip(serial, fanned):
        assert _history_fingerprint(s) == _history_fingerprint(p)
