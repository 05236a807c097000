"""Unit tests for the condensation methods (DECO one-step, DC, DSA, DM)."""

import numpy as np
import pytest

from repro.buffer.buffer import SyntheticBuffer
from repro.condensation import (CONDENSER_NAMES, DCMatcher, DMMatcher,
                                DSAMatcher, OneStepMatcher, make_condenser)
from repro.nn import init
from repro.nn.convnet import ConvNet

SHAPE = (1, 8, 8)
NUM_CLASSES = 3


@pytest.fixture
def deployed(rng):
    return ConvNet(1, NUM_CLASSES, 8, width=4, depth=2, rng=rng)


@pytest.fixture
def factory(deployed):
    def make(rng):
        init.reinitialize(deployed_scratch, rng)
        return deployed_scratch
    import copy
    deployed_scratch = copy.deepcopy(deployed)
    return make


@pytest.fixture
def buffer(rng):
    buf = SyntheticBuffer(NUM_CLASSES, 2, SHAPE)
    buf.init_random(rng, scale=0.5)
    return buf


@pytest.fixture
def real_data(rng):
    """Structured per-class real data: class c has mean offset pattern c."""
    patterns = rng.standard_normal((NUM_CLASSES, *SHAPE)).astype(np.float32)
    xs, ys = [], []
    for c in range(NUM_CLASSES):
        xs.append(patterns[c] + 0.3 * rng.standard_normal(
            (8, *SHAPE)).astype(np.float32))
        ys.append(np.full(8, c, dtype=np.int64))
    return np.concatenate(xs), np.concatenate(ys)


class TestFactory:
    @pytest.mark.parametrize("name", CONDENSER_NAMES)
    def test_all_names_construct(self, name):
        assert make_condenser(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown condenser"):
            make_condenser("mtt")

    def test_kwargs_forwarded(self):
        matcher = make_condenser("deco", iterations=3, alpha=0.2)
        assert matcher.iterations == 3
        assert matcher.alpha == 0.2


class TestOneStepMatcher:
    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            OneStepMatcher(iterations=0)

    def test_updates_only_active_classes(self, buffer, real_data, factory,
                                         rng):
        x, y = real_data
        before = buffer.images.copy()
        matcher = OneStepMatcher(iterations=2, alpha=0.0)
        matcher.condense(buffer, [0], x[y == 0], y[y == 0], None,
                         model_factory=factory, rng=rng)
        active = buffer.class_indices(0)
        inactive = np.setdiff1d(np.arange(len(buffer)), active)
        assert not np.allclose(buffer.images[active], before[active])
        np.testing.assert_array_equal(buffer.images[inactive],
                                      before[inactive])

    def test_empty_inputs_are_noops(self, buffer, real_data, factory, rng):
        x, y = real_data
        before = buffer.images.copy()
        stats = OneStepMatcher().condense(buffer, [], x, y, None,
                                          model_factory=factory, rng=rng)
        assert stats.iterations == 0
        stats = OneStepMatcher().condense(buffer, [0], x[:0], y[:0], None,
                                          model_factory=factory, rng=rng)
        assert stats.iterations == 0
        np.testing.assert_array_equal(buffer.images, before)

    def test_pass_counting_without_discrimination(self, buffer, real_data,
                                                  factory, rng):
        x, y = real_data
        stats = OneStepMatcher(iterations=4, alpha=0.0).condense(
            buffer, [0, 1], x, y, None, model_factory=factory, rng=rng)
        assert stats.iterations == 4
        # Eq. 7: 5 passes/iter, the +eps/-eps pair counting as two passes
        # whether it ran lane-stacked or not.
        assert stats.extra["fused"] == 4
        assert stats.forward_backward_passes == 4 * 5
        assert stats.extra["matching_passes"] == stats.forward_backward_passes

    def test_pass_counting_with_discrimination(self, buffer, real_data,
                                               factory, deployed, rng):
        x, y = real_data
        stats = OneStepMatcher(iterations=3, alpha=0.1).condense(
            buffer, [0], x[y == 0], y[y == 0], None, model_factory=factory,
            rng=rng, deployed_model=deployed)
        assert stats.forward_backward_passes == 3 * 6
        assert "discrimination_loss" in stats.extra

    def test_matching_loss_reported(self, buffer, real_data, factory, rng):
        x, y = real_data
        stats = OneStepMatcher(iterations=2, alpha=0.0).condense(
            buffer, [0, 1, 2], x, y, None, model_factory=factory, rng=rng)
        assert stats.matching_loss > 0.0

    def test_condensed_data_trains_better_than_noise(self, real_data, factory,
                                                     deployed, rng):
        """The condensed buffer should beat a noise buffer for training."""
        from repro.core.training import evaluate_accuracy, train_model
        x, y = real_data
        test_x = x + 0.1 * rng.standard_normal(x.shape).astype(np.float32)

        noise_buf = SyntheticBuffer(NUM_CLASSES, 2, SHAPE)
        noise_buf.init_random(np.random.default_rng(0), scale=0.5)
        cond_buf = SyntheticBuffer(NUM_CLASSES, 2, SHAPE)
        cond_buf.images[:] = noise_buf.images

        matcher = OneStepMatcher(iterations=30, alpha=0.0, syn_lr=0.3)
        matcher.condense(cond_buf, [0, 1, 2], x, y, None,
                         model_factory=factory, rng=rng)

        def train_fresh(buf, seed):
            model = ConvNet(1, NUM_CLASSES, 8, width=4, depth=2,
                            rng=np.random.default_rng(seed))
            bx, by = buf.as_training_set()
            train_model(model, bx, by, epochs=40, lr=1e-2,
                        rng=np.random.default_rng(seed))
            return evaluate_accuracy(model, test_x, y)

        acc_noise = np.mean([train_fresh(noise_buf, s) for s in range(3)])
        acc_cond = np.mean([train_fresh(cond_buf, s) for s in range(3)])
        assert acc_cond > acc_noise + 0.1

    def test_confidence_weights_affect_updates(self, buffer, real_data,
                                               factory, rng):
        x, y = real_data
        mask = y == 0
        weights = np.linspace(0.1, 1.0, mask.sum()).astype(np.float32)

        buf_a = SyntheticBuffer(NUM_CLASSES, 2, SHAPE)
        buf_a.images[:] = buffer.images
        buf_b = SyntheticBuffer(NUM_CLASSES, 2, SHAPE)
        buf_b.images[:] = buffer.images

        OneStepMatcher(iterations=1, alpha=0.0).condense(
            buf_a, [0], x[mask], y[mask], weights,
            model_factory=factory, rng=np.random.default_rng(1))
        OneStepMatcher(iterations=1, alpha=0.0, use_confidence=False).condense(
            buf_b, [0], x[mask], y[mask], weights,
            model_factory=factory, rng=np.random.default_rng(1))
        assert not np.allclose(buf_a.images, buf_b.images)

    def test_rerandomize_false_reuses_model(self, buffer, real_data, rng):
        x, y = real_data
        calls = []

        def counting_factory(r):
            calls.append(1)
            return ConvNet(1, NUM_CLASSES, 8, width=4, depth=2, rng=r)

        OneStepMatcher(iterations=3, alpha=0.0, rerandomize=False).condense(
            buffer, [0], x[y == 0], y[y == 0], None,
            model_factory=counting_factory, rng=rng)
        assert len(calls) == 1

        OneStepMatcher(iterations=3, alpha=0.0, rerandomize=True).condense(
            buffer, [0], x[y == 0], y[y == 0], None,
            model_factory=counting_factory, rng=rng)
        assert len(calls) == 1 + 4  # one initial + one per iteration


class TestDCMatcher:
    def test_bilevel_is_costlier_than_one_step(self, buffer, real_data,
                                               factory, rng):
        x, y = real_data
        dc_stats = DCMatcher(outer_loops=1, inner_epochs=2,
                             net_steps=2).condense(
            buffer, [0, 1], x, y, None, model_factory=factory, rng=rng)
        one_stats = OneStepMatcher(iterations=2, alpha=0.0).condense(
            buffer, [0, 1], x, y, None, model_factory=factory, rng=rng)
        assert dc_stats.forward_backward_passes > \
            one_stats.forward_backward_passes

    def test_skips_classes_without_real_samples(self, buffer, real_data,
                                                factory, rng):
        x, y = real_data
        before = buffer.images.copy()
        DCMatcher(outer_loops=1, inner_epochs=1, net_steps=1).condense(
            buffer, [2], x[y == 0], y[y == 0], None,
            model_factory=factory, rng=rng)
        np.testing.assert_array_equal(buffer.images, before)

    def test_updates_buffer(self, buffer, real_data, factory, rng):
        x, y = real_data
        before = buffer.images.copy()
        stats = DCMatcher(outer_loops=1, inner_epochs=2, net_steps=1).condense(
            buffer, [0, 1, 2], x, y, None, model_factory=factory, rng=rng)
        assert not np.allclose(buffer.images, before)
        assert stats.iterations == 2 * 3  # epochs x classes


class TestDSAMatcher:
    def test_is_a_dc_variant(self):
        assert isinstance(DSAMatcher(), DCMatcher)

    def test_augment_prob_validation(self):
        with pytest.raises(ValueError, match="augment_prob"):
            DSAMatcher(augment_prob=1.5)

    def test_sampled_augmentation_controlled_by_prob(self, rng):
        always = DSAMatcher(augment_prob=1.0)
        never = DSAMatcher(augment_prob=0.0)
        assert always._sample_augmentation(8, rng) is not None
        assert never._sample_augmentation(8, rng) is None

    def test_condenses(self, buffer, real_data, factory, rng):
        x, y = real_data
        before = buffer.images.copy()
        DSAMatcher(outer_loops=1, inner_epochs=1, net_steps=1).condense(
            buffer, [0], x[y == 0], y[y == 0], None,
            model_factory=factory, rng=rng)
        assert not np.allclose(buffer.images[buffer.class_indices(0)],
                               before[buffer.class_indices(0)])


class TestDMMatcher:
    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            DMMatcher(iterations=0)

    def test_is_cheapest_per_iteration(self, buffer, real_data, factory, rng):
        x, y = real_data
        dm = DMMatcher(iterations=3).condense(
            buffer, [0, 1], x, y, None, model_factory=factory, rng=rng)
        deco = OneStepMatcher(iterations=3, alpha=0.0).condense(
            buffer, [0, 1], x, y, None, model_factory=factory, rng=rng)
        assert dm.forward_backward_passes < deco.forward_backward_passes

    def test_moves_class_means_toward_real_features(self, real_data, rng):
        x, y = real_data
        buf = SyntheticBuffer(NUM_CLASSES, 2, SHAPE)
        buf.init_random(np.random.default_rng(0), scale=0.5)

        # A fixed encoder so we can measure mean-feature distance.
        fixed = ConvNet(1, NUM_CLASSES, 8, width=4, depth=2,
                        rng=np.random.default_rng(42))

        def fixed_factory(r):
            return fixed

        from repro.nn.tensor import Tensor, no_grad

        def mean_gap():
            with no_grad():
                total = 0.0
                for c in range(NUM_CLASSES):
                    fr = fixed.features(Tensor(x[y == c])).data.mean(axis=0)
                    fs = fixed.features(
                        Tensor(buf.images_for_class(c))).data.mean(axis=0)
                    total += float(np.linalg.norm(fr - fs))
                return total

        gap_before = mean_gap()
        DMMatcher(iterations=20, syn_lr=0.5).condense(
            buf, [0, 1, 2], x, y, None, model_factory=fixed_factory, rng=rng)
        assert mean_gap() < gap_before

    def test_updates_only_active_classes(self, buffer, real_data, factory,
                                         rng):
        x, y = real_data
        before = buffer.images.copy()
        DMMatcher(iterations=2).condense(buffer, [1], x, y, None,
                                         model_factory=factory, rng=rng)
        inactive = buffer.indices_for_classes([0, 2])
        np.testing.assert_array_equal(buffer.images[inactive],
                                      before[inactive])
