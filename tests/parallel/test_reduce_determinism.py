"""Thread-count invariance of the training-step reductions.

The conv weight/bias gradients (a batched ``np.matmul`` summed over the
batch), the instance-norm statistics and parameter gradients, and the loss
sum are byte-identical at every BLAS thread count and across repeated
runs.  Covers the plain autograd path, the lane-stacked finite-difference
path, and a full micro DECO learner segment.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.losses import cross_entropy
from repro.nn.tensor import Tensor


def _training_step(batch):
    """Conv + instance-norm + cross-entropy; returns every gradient."""
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((batch, 3, 8, 8)).astype(np.float32),
               requires_grad=True)
    w = Tensor(rng.standard_normal((8, 3, 3, 3)).astype(np.float32) * 0.1,
               requires_grad=True)
    b = Tensor(np.zeros(8, np.float32), requires_grad=True)
    gamma = Tensor(np.ones(8, np.float32), requires_grad=True)
    beta = Tensor(np.zeros(8, np.float32), requires_grad=True)
    proj = Tensor(rng.standard_normal((8 * 8 * 8, 10)).astype(np.float32)
                  * 0.01)
    out = F.conv2d(x, w, b, stride=1, padding=1)
    out = F.instance_norm2d(out, gamma, beta)
    logits = out.reshape(batch, -1).matmul(proj)
    loss = cross_entropy(logits, rng.integers(0, 10, batch))
    loss.backward()
    return {"loss": loss.data.copy(), "dx": x.grad.copy(),
            "dw": w.grad.copy(), "db": b.grad.copy(),
            "dgamma": gamma.grad.copy(), "dbeta": beta.grad.copy()}


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("batch", [64, 512])
def test_training_step_bit_identical_across_thread_counts(
        threads, batch, blas_threads):
    blas_threads(1)
    serial = _training_step(batch)
    blas_threads(threads)
    got = _training_step(batch)
    for name, ref in serial.items():
        assert ref.tobytes() == got[name].tobytes(), (
            f"{name} diverged at threads={threads}, batch={batch}")


@pytest.mark.parametrize("threads", [2, 4])
def test_training_step_stable_across_repeated_runs(threads, blas_threads):
    blas_threads(threads)
    first = _training_step(512)
    second = _training_step(512)
    for name, ref in first.items():
        assert ref.tobytes() == second[name].tobytes(), name


# ----------------------------------------------------------------------
# Lane-stacked finite-difference path
# ----------------------------------------------------------------------
def _fd_gradient():
    from repro.condensation import matching
    from repro.nn.convnet import ConvNet

    rng = np.random.default_rng(2)
    model = ConvNet(3, 4, 8, width=8, depth=2, rng=np.random.default_rng(8))
    x = rng.standard_normal((8, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 4, size=8).astype(np.int64)
    direction = [rng.standard_normal(p.data.shape).astype(np.float32)
                 for p in model.parameters()]
    stats: dict = {}
    grad = matching.finite_difference_matching_grad(model, x, y, direction,
                                                    stats_out=stats)
    assert stats["fused"]
    return grad


@pytest.mark.parametrize("threads", [2, 4])
def test_fused_fd_lane_path_bit_identical_across_thread_counts(
        threads, blas_threads):
    blas_threads(1)
    serial = _fd_gradient()
    blas_threads(threads)
    threaded = _fd_gradient()
    repeat = _fd_gradient()
    assert serial.tobytes() == threaded.tobytes()
    assert serial.tobytes() == repeat.tobytes()


# ----------------------------------------------------------------------
# Full learner segment
# ----------------------------------------------------------------------
def _norm(value):
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def _fingerprint(result):
    return (result.final_accuracy,
            [sorted((k, _norm(v)) for k, v in d.items())
             for d in result.history.diagnostics])


def test_deco_learner_segment_bit_identical_threads_1_vs_4(blas_threads):
    from repro.experiments import prepare_experiment, run_method

    prepared = prepare_experiment("core50", "micro", seed=0)
    blas_threads(1)
    serial = run_method(prepared, "deco", 1, seed=0)
    blas_threads(4)
    threaded = run_method(prepared, "deco", 1, seed=0)
    assert _fingerprint(serial) == _fingerprint(threaded)
