"""Unit tests for training/evaluation loops (repro.core.training)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.training import evaluate_accuracy, predict_logits, train_model
from repro.nn.convnet import ConvNet
from repro.nn.layers import Conv2d, Flatten, Linear, ReLU, Sequential
from repro.nn.losses import cross_entropy
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor
from repro.utils.batching import iterate_minibatches

MIB = 2 ** 20


@pytest.fixture
def separable(rng):
    x = rng.standard_normal((24, 1, 8, 8)).astype(np.float32)
    x[12:] += 2.5
    y = np.array([0] * 12 + [1] * 12)
    return x, y


class TestTrainModel:
    def test_empty_dataset_raises(self, rng):
        model = Sequential(Flatten(), Linear(4, 8, rng=rng), ReLU(),
                           Linear(8, 2, rng=rng))
        with pytest.raises(ValueError, match="empty"):
            train_model(model, np.empty((0, 4)), np.empty(0, dtype=np.int64),
                        epochs=1)

    def test_loss_decreases(self, rng, separable):
        x, y = separable
        model = ConvNet(1, 2, 8, width=4, depth=2, rng=rng)
        first = train_model(model, x, y, epochs=1, lr=1e-2, rng=rng)
        last = train_model(model, x, y, epochs=10, lr=1e-2, rng=rng)
        assert last < first

    def test_reaches_high_train_accuracy(self, rng, separable):
        x, y = separable
        model = ConvNet(1, 2, 8, width=8, depth=2, rng=rng)
        train_model(model, x, y, epochs=30, lr=1e-2, rng=rng)
        assert evaluate_accuracy(model, x, y) > 0.9

    def test_sample_weights_respected(self, rng):
        # With all weights zero, training must not move the parameters
        # (weight decay off).
        x = rng.standard_normal((8, 4)).astype(np.float32)
        y = np.zeros(8, dtype=np.int64)
        model = Sequential(Flatten(), Linear(4, 8, rng=rng), ReLU(),
                           Linear(8, 2, rng=rng))
        before = model.state_dict()
        train_model(model, x, y, epochs=3, lr=0.5, weight_decay=0.0,
                    weights=np.zeros(8, dtype=np.float32), rng=rng)
        after = model.state_dict()
        for key in before:
            np.testing.assert_allclose(before[key], after[key], atol=1e-6)

    def test_deterministic_given_rng(self, separable):
        x, y = separable
        results = []
        for _ in range(2):
            model = ConvNet(1, 2, 8, width=4, depth=2,
                            rng=np.random.default_rng(3))
            train_model(model, x, y, epochs=3, lr=1e-2,
                        rng=np.random.default_rng(4))
            results.append(model.state_dict())
        for key in results[0]:
            np.testing.assert_array_equal(results[0][key], results[1][key])


class TestEvaluation:
    def test_predict_logits_shape(self, rng):
        model = ConvNet(1, 5, 8, width=4, depth=2, rng=rng)
        x = rng.standard_normal((7, 1, 8, 8)).astype(np.float32)
        assert predict_logits(model, x).shape == (7, 5)

    def test_predict_logits_batching_consistency(self, rng):
        model = ConvNet(1, 3, 8, width=4, depth=2, rng=rng)
        x = rng.standard_normal((10, 1, 8, 8)).astype(np.float32)
        a = predict_logits(model, x, batch_size=3)
        b = predict_logits(model, x, batch_size=100)
        np.testing.assert_allclose(a, b, rtol=1e-5)

    def test_predict_restores_training_mode(self, rng):
        model = ConvNet(1, 3, 8, width=4, depth=2, rng=rng)
        model.train()
        predict_logits(model, np.zeros((1, 1, 8, 8), dtype=np.float32))
        assert model.training

    def test_evaluate_accuracy_empty_raises(self, rng):
        model = Sequential(Flatten(), Linear(4, 8, rng=rng), ReLU(),
                           Linear(8, 2, rng=rng))
        with pytest.raises(ValueError, match="empty"):
            evaluate_accuracy(model, np.empty((0, 4)), np.empty(0))

    def test_evaluate_accuracy_range(self, rng):
        model = ConvNet(1, 2, 8, width=4, depth=2, rng=rng)
        x = rng.standard_normal((10, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 2, 10)
        acc = evaluate_accuracy(model, x, y)
        assert 0.0 <= acc <= 1.0

    def test_predictions_do_not_build_graph(self, rng):
        model = ConvNet(1, 2, 8, width=4, depth=2, rng=rng)
        x = np.zeros((2, 1, 8, 8), dtype=np.float32)
        predict_logits(model, x)
        assert all(p.grad is None for p in model.parameters())


def _images(rng, n, hw=16):
    return (rng.standard_normal((n, 3, hw, hw)).astype(np.float32),
            rng.integers(0, 10, n))


def _convnet(seed=1):
    return ConvNet(3, 10, 16, width=16, depth=2,
                   rng=np.random.default_rng(seed))


class TestBoundedMemory:
    """A pass over an array of any length holds only a bounded amount of
    transient memory, and leaves nothing behind."""

    def test_retrain_peak_is_bounded_and_nothing_is_retained(self, rng):
        model = _convnet()
        x, y = _images(rng, 100)
        rest = [_images(rng, n) for n in (37, 81, 91, 100)]
        x_test, _ = _images(rng, 220)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train_model(model, x, y, epochs=1, lr=1e-2,
                        rng=np.random.default_rng(2))
            peak = tracemalloc.get_traced_memory()[1]
            for xs, ys in rest:
                train_model(model, xs, ys, epochs=1, lr=1e-2,
                            rng=np.random.default_rng(2))
            predict_logits(model, x_test)
            end = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert peak - start < 12 * MIB
        assert abs(end - start) < 0.5 * MIB


def _reference_train(model, x, y, weights, *, epochs, lr, rng):
    """The single-batch SGD loop: one forward/backward per minibatch."""
    optimizer = SGD(model.parameters(), lr, momentum=0.9, weight_decay=5e-4)
    model.train()
    for _ in range(epochs):
        for idx in iterate_minibatches(len(x), 128, rng=rng):
            optimizer.zero_grad()
            loss = cross_entropy(model(Tensor(x[idx])), y[idx],
                                 weights=None if weights is None
                                 else weights[idx])
            loss.backward()
            optimizer.step()


def _conv_bias_ids(model):
    return {id(m.bias) for m in model.modules()
            if isinstance(m, Conv2d) and m.bias is not None}


class TestMicroBatchEquivalence:
    """Micro-batched training takes the same SGD steps as training on the
    whole minibatch at once."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_single_batch_sgd(self, rng, weighted):
        x, y = _images(rng, 81)  # splits into uneven micro-batches
        weights = (rng.uniform(0.2, 1.0, 81).astype(np.float32)
                   if weighted else None)
        ours, ref = _convnet(), _convnet()
        train_model(ours, x, y, epochs=2, lr=1e-2, weights=weights,
                    rng=np.random.default_rng(4))
        _reference_train(ref, x, y, weights, epochs=2, lr=1e-2,
                         rng=np.random.default_rng(4))
        biases = _conv_bias_ids(ref)
        for p, q in zip(ours.parameters(), ref.parameters()):
            # Conv biases feed instance norm, so their gradient is float
            # rounding noise around zero: compare them absolutely.
            tol = (dict(rtol=0, atol=1e-6) if id(q) in biases
                   else dict(rtol=1e-5, atol=1e-6))
            np.testing.assert_allclose(p.data, q.data, **tol)
