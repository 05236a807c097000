"""Unit tests for the ConvNet backbone."""

import numpy as np
import pytest

from repro.nn import init
from repro.nn.convnet import ConvNet
from repro.nn.losses import cross_entropy
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor


class TestConvNet:
    def test_forward_shape(self, rng):
        net = ConvNet(3, 7, 16, width=8, depth=2, rng=rng)
        out = net(Tensor(rng.standard_normal((4, 3, 16, 16)).astype(np.float32)))
        assert out.shape == (4, 7)

    def test_features_shape(self, rng):
        net = ConvNet(3, 5, 8, width=4, depth=2, rng=rng)
        feats = net.features(
            Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32)))
        assert feats.shape == (2, net.feature_dim)
        assert net.feature_dim == 4 * 2 * 2

    def test_forward_equals_classifier_of_features(self, rng):
        net = ConvNet(1, 3, 8, width=4, depth=1, rng=rng)
        x = Tensor(rng.standard_normal((2, 1, 8, 8)).astype(np.float32))
        np.testing.assert_allclose(net(x).data,
                                   net.classifier(net.features(x)).data,
                                   rtol=1e-5)

    def test_indivisible_image_size_raises(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            ConvNet(3, 10, 10, depth=2, rng=rng)

    def test_clone_copies_weights(self, rng):
        net = ConvNet(1, 2, 8, width=4, depth=2, rng=rng)
        other = net.clone()
        for (_, a), (_, b) in zip(net.named_parameters(),
                                  other.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)
            assert a is not b

    def test_deterministic_given_rng(self):
        a = ConvNet(1, 2, 8, rng=np.random.default_rng(7))
        b = ConvNet(1, 2, 8, rng=np.random.default_rng(7))
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_can_overfit_tiny_dataset(self, rng):
        net = ConvNet(1, 2, 8, width=8, depth=2, rng=rng)
        x = rng.standard_normal((8, 1, 8, 8)).astype(np.float32)
        x[:4] += 2.0
        y = np.array([0] * 4 + [1] * 4)
        opt = SGD(net.parameters(), 0.05, momentum=0.9)
        for _ in range(60):
            opt.zero_grad()
            loss = cross_entropy(net(Tensor(x)), y)
            loss.backward()
            opt.step()
        predictions = net(Tensor(x)).data.argmax(axis=1)
        assert (predictions == y).mean() == 1.0


class TestReinitialize:
    def test_changes_conv_and_linear_weights(self, rng):
        net = ConvNet(1, 3, 8, width=4, depth=1, rng=rng)
        before = net.state_dict()
        init.reinitialize(net, np.random.default_rng(99))
        after = net.state_dict()
        changed = [k for k in before
                   if not np.allclose(before[k], after[k])]
        assert any("conv" in k.lower() or "weight" in k for k in changed)

    def test_resets_norm_affine_params(self, rng):
        net = ConvNet(1, 3, 8, width=4, depth=1, rng=rng)
        # Perturb the norm parameters, then reinitialize.
        for name, p in net.named_parameters():
            if "gamma" in name or "beta" in name:
                p.data += 5.0
        init.reinitialize(net, np.random.default_rng(0))
        for name, p in net.named_parameters():
            if "gamma" in name:
                np.testing.assert_allclose(p.data, 1.0)
            if "beta" in name:
                np.testing.assert_allclose(p.data, 0.0)

    def test_deterministic_given_seed(self, rng):
        net = ConvNet(1, 2, 8, width=4, depth=1, rng=rng)
        init.reinitialize(net, np.random.default_rng(5))
        first = net.state_dict()
        init.reinitialize(net, np.random.default_rng(5))
        second = net.state_dict()
        for key in first:
            np.testing.assert_array_equal(first[key], second[key])

    def test_init_distributions(self, rng):
        w = init.kaiming_uniform(rng, (100, 100), fan_in=100)
        bound = np.sqrt(2.0) * np.sqrt(3.0 / 100)
        assert np.abs(w).max() <= bound + 1e-6
        u = init.uniform_fan(rng, (100,), fan_in=25)
        assert np.abs(u).max() <= 0.2 + 1e-6
