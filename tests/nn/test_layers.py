"""Unit tests for layer modules (repro.nn.layers)."""

import copy

import numpy as np
import pytest

from repro.nn.convnet import ConvNet
from repro.nn.layers import (AvgPool2d, Conv2d, Flatten, InstanceNorm2d,
                             Linear, Module, ReLU, Sequential,
                             frozen_parameters)
from repro.nn.tensor import Tensor


def small_net(rng):
    return Sequential(
        Conv2d(1, 4, 3, padding=1, rng=rng),
        InstanceNorm2d(4),
        ReLU(),
        AvgPool2d(2),
        Flatten(),
        Linear(4 * 2 * 2, 3, rng=rng),
    )


class TestModuleTraversal:
    def test_parameters_are_collected_recursively(self, rng):
        net = small_net(rng)
        names = [name for name, _ in net.named_parameters()]
        assert any("layers.0.weight" in n for n in names)
        assert any("layers.5.bias" in n for n in names)
        assert len(net.parameters()) == 6  # conv w/b, norm gamma/beta, fc w/b

    def test_num_parameters(self, rng):
        layer = Linear(4, 3, rng=rng)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_modules_iterates_all(self, rng):
        net = small_net(rng)
        assert len(list(net.modules())) == 7  # container + 6 layers

    def test_train_eval_propagates(self, rng):
        net = small_net(rng)
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad_clears_all(self, rng):
        net = small_net(rng)
        x = Tensor(rng.standard_normal((2, 1, 4, 4)).astype(np.float32))
        net(x).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestParameterList:
    """``parameters()`` walks the module tree once and reads
    ``requires_grad`` at every call."""

    def test_frozen_block_hides_then_restores_the_same_tensors(self, rng):
        net = ConvNet(1, 3, 8, width=4, depth=2, rng=rng)
        before = net.parameters()
        assert len(before) == 10
        with frozen_parameters(net) as frozen:
            assert [id(p) for p in frozen] == [id(p) for p in before]
            assert net.parameters() == []
            assert net.encoder.parameters() == []
        assert [id(p) for p in net.parameters()] == [id(p) for p in before]
        assert [id(p) for _, p in net.named_parameters()] == [
            id(p) for p in before]

    def test_deepcopy_and_clone_own_their_tensors(self, rng):
        net = ConvNet(1, 3, 8, width=4, depth=2, rng=rng)
        own = {id(p) for p in net.parameters()}
        for twin in (copy.deepcopy(net), net.clone(rng)):
            params = twin.parameters()
            assert len(params) == len(own)
            assert not own & {id(p) for p in params}
            assert [id(p) for p in params] == [
                id(p) for _, p in twin.named_parameters()]
            params[0].data = params[0].data + 1.0
            assert not np.array_equal(params[0].data,
                                      net.parameters()[0].data)

    def test_loaded_state_is_visible(self, rng):
        a, b = small_net(rng), small_net(rng)
        params = b.parameters()
        b.load_state_dict(a.state_dict())
        for p, q in zip(b.parameters(), a.parameters()):
            np.testing.assert_array_equal(p.data, q.data)
        assert [id(p) for p in b.parameters()] == [id(p) for p in params]


class TestStateDict:
    def test_roundtrip(self, rng):
        a = small_net(rng)
        b = small_net(rng)
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_state_dict_is_a_copy(self, rng):
        net = Linear(2, 2, rng=rng)
        state = net.state_dict()
        state["weight"][:] = 0.0
        assert not np.allclose(net.weight.data, 0.0)

    def test_missing_key_raises(self, rng):
        net = Linear(2, 2, rng=rng)
        state = net.state_dict()
        del state["bias"]
        with pytest.raises(KeyError, match="missing"):
            net.load_state_dict(state)

    def test_unexpected_key_raises(self, rng):
        net = Linear(2, 2, rng=rng)
        state = net.state_dict()
        state["extra"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected"):
            net.load_state_dict(state)

    def test_shape_mismatch_raises(self, rng):
        net = Linear(2, 2, rng=rng)
        state = net.state_dict()
        state["weight"] = np.zeros((3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            net.load_state_dict(state)

    def test_copy_(self, rng):
        a = Linear(3, 2, rng=rng)
        b = Linear(3, 2, rng=rng)
        b.copy_(a)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestSequential:
    def test_forward_chains(self, rng):
        net = Sequential(Linear(2, 3, rng=rng), ReLU())
        out = net(Tensor(np.ones((1, 2), dtype=np.float32)))
        assert out.shape == (1, 3)
        assert (out.data >= 0).all()

    def test_len_iter_getitem(self, rng):
        net = Sequential(ReLU(), Flatten())
        assert len(net) == 2
        assert isinstance(net[1], Flatten)
        assert [type(m) for m in net] == [ReLU, Flatten]


class TestIndividualLayers:
    def test_linear_shapes(self, rng):
        layer = Linear(5, 3, rng=rng)
        assert layer(Tensor(np.zeros((7, 5), dtype=np.float32))).shape == (7, 3)

    def test_linear_no_bias(self, rng):
        layer = Linear(5, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_conv_shapes(self, rng):
        layer = Conv2d(3, 8, 3, padding=1, rng=rng)
        out = layer(Tensor(np.zeros((2, 3, 6, 6), dtype=np.float32)))
        assert out.shape == (2, 8, 6, 6)

    def test_conv_no_bias(self, rng):
        layer = Conv2d(1, 2, 3, bias=False, rng=rng)
        assert layer.bias is None

    def test_instance_norm_no_affine(self):
        layer = InstanceNorm2d(3, affine=False)
        assert layer.parameters() == []

    @pytest.mark.parametrize("activation,low,high", [
        (ReLU(), 0.0, np.inf),
    ])
    def test_activation_ranges(self, activation, low, high, rng):
        x = Tensor(rng.standard_normal(100).astype(np.float32) * 4)
        out = activation(x).data
        assert out.min() >= low
        assert out.max() <= high

    def test_pools(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)).astype(np.float32))
        assert AvgPool2d(2)(x).shape == (1, 1, 2, 2)

    def test_flatten_layer(self):
        x = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
        assert Flatten()(x).shape == (2, 12)

    def test_abstract_forward_raises(self):
        with pytest.raises(NotImplementedError):
            Module().forward(Tensor(np.zeros(1)))

    def test_kaiming_scale_reasonable(self, rng):
        layer = Linear(1000, 10, rng=rng)
        # Kaiming uniform bound: sqrt(2) * sqrt(3/1000) ~ 0.077
        assert np.abs(layer.weight.data).max() < 0.1
        assert layer.weight.data.std() > 0.02
