"""Unit tests for the paper's loss functions (repro.nn.losses)."""

import numpy as np
import pytest

from repro.nn.losses import (accuracy, cross_entropy,
                             feature_discrimination_loss, gradient_distance)
from repro.nn.tensor import Tensor
from tests.conftest import assert_grad_matches


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = rng.standard_normal((4, 3)).astype(np.float32)
        labels = np.array([0, 2, 1, 1])
        loss = cross_entropy(Tensor(logits), labels).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(4), labels].mean()
        assert loss == pytest.approx(expected, rel=1e-5)

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]], dtype=np.float32)
        loss = cross_entropy(Tensor(logits), np.array([0, 1])).item()
        assert loss < 1e-4

    def test_confidence_weights_scale_loss(self, rng):
        logits = rng.standard_normal((3, 4)).astype(np.float32)
        labels = np.array([1, 2, 3])
        unweighted = cross_entropy(Tensor(logits), labels).item()
        halved = cross_entropy(Tensor(logits), labels,
                               weights=np.full(3, 0.5, dtype=np.float32)).item()
        assert halved == pytest.approx(0.5 * unweighted, rel=1e-5)

    def test_per_sample_weights(self, rng):
        logits = rng.standard_normal((2, 3)).astype(np.float32)
        labels = np.array([0, 1])
        per_sample = cross_entropy(Tensor(logits), labels,
                                   reduction="none").data
        weighted = cross_entropy(Tensor(logits), labels,
                                 weights=np.array([1.0, 0.0], dtype=np.float32),
                                 reduction="sum").item()
        assert weighted == pytest.approx(per_sample[0], rel=1e-5)

    def test_reductions(self, rng):
        logits = rng.standard_normal((5, 3)).astype(np.float32)
        labels = rng.integers(0, 3, 5)
        mean = cross_entropy(Tensor(logits), labels, reduction="mean").item()
        total = cross_entropy(Tensor(logits), labels, reduction="sum").item()
        none = cross_entropy(Tensor(logits), labels, reduction="none").data
        assert total == pytest.approx(5 * mean, rel=1e-5)
        assert none.shape == (5,)
        assert none.sum() == pytest.approx(total, rel=1e-5)

    def test_invalid_reduction_raises(self):
        with pytest.raises(ValueError, match="reduction"):
            cross_entropy(Tensor(np.zeros((1, 2), dtype=np.float32)),
                          np.array([0]), reduction="bogus")

    def test_label_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="labels"):
            cross_entropy(Tensor(np.zeros((2, 3), dtype=np.float32)),
                          np.array([0, 1, 2]))

    def test_weight_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="weights"):
            cross_entropy(Tensor(np.zeros((2, 3), dtype=np.float32)),
                          np.array([0, 1]), weights=np.ones(3, dtype=np.float32))

    def test_gradient_vs_numerical(self, rng):
        logits = rng.standard_normal((3, 4)).astype(np.float32)
        labels = np.array([0, 3, 2])
        weights = np.array([1.0, 0.7, 0.3], dtype=np.float32)
        assert_grad_matches(
            lambda t: cross_entropy(t, labels, weights=weights), logits)


class TestAccuracy:
    def test_accuracy_with_array(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_with_tensor(self):
        logits = Tensor([[2.0, 1.0]])
        assert accuracy(logits, np.array([0])) == 1.0


class TestFeatureDiscrimination:
    def _features(self, rng, labels, dim=6):
        return Tensor(rng.standard_normal((len(labels), dim)).astype(np.float32),
                      requires_grad=True)

    def test_returns_zero_without_pairs(self, rng):
        # One sample per class -> no positives anywhere.
        feats = self._features(rng, [0, 1, 2])
        loss = feature_discrimination_loss(feats, np.array([0, 1, 2]), [0, 1],
                                           rng)
        assert loss.item() == 0.0

    def test_empty_active_set(self, rng):
        feats = self._features(rng, [0, 0, 1, 1])
        loss = feature_discrimination_loss(feats, np.array([0, 0, 1, 1]), [],
                                           rng)
        assert loss.item() == 0.0

    def test_single_class_has_no_negatives(self, rng):
        feats = self._features(rng, [0, 0, 0])
        loss = feature_discrimination_loss(feats, np.array([0, 0, 0]), [0],
                                           rng)
        assert loss.item() == 0.0

    def test_clustered_features_give_lower_loss(self, rng):
        labels = np.array([0, 0, 1, 1])
        tight = np.array([[1, 0], [1, 0], [-1, 0], [-1, 0]], dtype=np.float32)
        mixed = np.array([[1, 0], [-1, 0], [1, 0], [-1, 0]], dtype=np.float32)
        loss_tight = feature_discrimination_loss(
            Tensor(tight), labels, [0, 1, 2, 3], np.random.default_rng(0),
            temperature=0.5).item()
        loss_mixed = feature_discrimination_loss(
            Tensor(mixed), labels, [0, 1, 2, 3], np.random.default_rng(0),
            temperature=0.5).item()
        assert loss_tight < loss_mixed

    def test_gradient_pulls_same_class_together(self):
        # Two same-class points apart, one negative-class cluster: gradient
        # descent on the loss should increase same-class similarity.
        feats_val = np.array([[1.0, 0.2], [0.8, -0.2],
                              [-1.0, 0.1], [-0.9, -0.1]], dtype=np.float32)
        labels = np.array([0, 0, 1, 1])
        feats = Tensor(feats_val.copy(), requires_grad=True)
        loss = feature_discrimination_loss(feats, labels, [0, 1],
                                           np.random.default_rng(0),
                                           temperature=0.5)
        loss.backward()
        stepped = feats_val - 0.1 * feats.grad
        def cos(a, b):
            return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos(stepped[0], stepped[1]) > cos(feats_val[0], feats_val[1])

    def test_gradient_vs_numerical(self, rng):
        labels = np.array([0, 0, 1, 1, 2, 2])
        feats_val = rng.standard_normal((6, 4)).astype(np.float32)
        # Fixed negative-class draws so FD re-evaluation matches.
        assert_grad_matches(
            lambda t: feature_discrimination_loss(
                t, labels, [0, 2, 4], np.random.default_rng(3),
                temperature=0.3),
            feats_val, atol=3e-2)

    def test_temperature_scales_sharpness(self, rng):
        labels = np.array([0, 0, 1, 1])
        feats = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        low_t = feature_discrimination_loss(feats, labels, [0],
                                            np.random.default_rng(0),
                                            temperature=0.05).item()
        high_t = feature_discrimination_loss(feats, labels, [0],
                                             np.random.default_rng(0),
                                             temperature=5.0).item()
        assert low_t != pytest.approx(high_t)


class TestGradientDistance:
    def test_identical_gradients_have_zero_cosine_distance(self, rng):
        grads = [rng.standard_normal((3, 4)).astype(np.float32)]
        dist = gradient_distance(grads, [g.copy() for g in grads]).item()
        assert dist == pytest.approx(0.0, abs=1e-4)

    def test_opposite_gradients_have_max_cosine_distance(self, rng):
        g = rng.standard_normal((2, 5)).astype(np.float32)
        dist = gradient_distance([Tensor(g)], [-g], metric="cosine").item()
        # 1 - (-1) = 2 per row, 2 rows.
        assert dist == pytest.approx(4.0, rel=1e-3)

    def test_l2_metric(self):
        a = np.ones((1, 2), dtype=np.float32)
        b = np.zeros((1, 2), dtype=np.float32)
        assert gradient_distance([Tensor(a)], [b], metric="l2").item() == \
            pytest.approx(2.0)

    def test_sums_over_layers(self, rng):
        g1 = rng.standard_normal((2, 3)).astype(np.float32)
        g2 = rng.standard_normal((4,)).astype(np.float32)
        separate = (gradient_distance([Tensor(g1)], [-g1]).item()
                    + gradient_distance([Tensor(g2)], [-g2]).item())
        combined = gradient_distance([Tensor(g1), Tensor(g2)],
                                     [-g1, -g2]).item()
        assert combined == pytest.approx(separate, rel=1e-4)

    def test_unknown_metric_raises(self):
        with pytest.raises(ValueError, match="metric"):
            gradient_distance([Tensor(np.ones(2))], [np.ones(2)],
                              metric="hamming")

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="lengths"):
            gradient_distance([Tensor(np.ones(2))], [])

    def test_empty_lists_raise(self):
        with pytest.raises(ValueError, match="empty"):
            gradient_distance([], [])

    def test_differentiable_wrt_first_argument(self, rng):
        g_real = rng.standard_normal((3, 4)).astype(np.float32)
        g_syn_val = rng.standard_normal((3, 4)).astype(np.float32)
        assert_grad_matches(
            lambda t: gradient_distance([t], [g_real], metric="cosine"),
            g_syn_val)

    def test_l2_differentiable(self, rng):
        g_real = rng.standard_normal((2, 3)).astype(np.float32)
        g_syn_val = rng.standard_normal((2, 3)).astype(np.float32)
        assert_grad_matches(
            lambda t: gradient_distance([t], [g_real], metric="l2"),
            g_syn_val)
