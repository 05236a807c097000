"""Unit tests for learner checkpointing (model + buffer snapshots)."""

import numpy as np
import pytest

from repro.buffer.buffer import SyntheticBuffer
from repro.condensation.one_step import OneStepMatcher
from repro.core.deco import DECOLearner
from repro.core.learner import LearnerConfig
from repro.core.replay import UpperBoundLearner
from repro.nn.convnet import ConvNet


def make_learner(seed=0, ipc=2):
    model = ConvNet(1, 3, 8, width=4, depth=2, rng=np.random.default_rng(seed))
    buffer = SyntheticBuffer(3, ipc, (1, 8, 8))
    buffer.init_random(np.random.default_rng(seed))
    return DECOLearner(model, buffer, condenser=OneStepMatcher(iterations=1),
                       config=LearnerConfig(beta=1, train_epochs=1),
                       rng=np.random.default_rng(seed))


class TestCheckpoint:
    def test_roundtrip_restores_model_and_buffer(self):
        a = make_learner(seed=0)
        b = make_learner(seed=1)
        state = a.checkpoint()
        b.restore(state)
        for key, value in a.model.state_dict().items():
            np.testing.assert_array_equal(value, b.model.state_dict()[key])
        np.testing.assert_array_equal(a.buffer.images, b.buffer.images)

    def test_checkpoint_is_a_snapshot_not_a_view(self):
        learner = make_learner()
        state = learner.checkpoint()
        learner.buffer.images[:] = 0.0
        assert state["extra.buffer_images"].std() > 0.0

    def test_restore_rejects_shape_mismatch(self):
        a = make_learner(ipc=2)
        b = make_learner(ipc=3)
        with pytest.raises(ValueError, match="mismatch"):
            b.restore(a.checkpoint())

    def test_persists_through_npz(self, tmp_path):
        a = make_learner(seed=0)
        path = tmp_path / "ckpt.npz"
        np.savez(path, **a.checkpoint())
        b = make_learner(seed=9)
        with np.load(path) as archive:
            b.restore(dict(archive))
        np.testing.assert_array_equal(a.buffer.images, b.buffer.images)

    def test_upper_bound_checkpoints_model_and_seen_set(self):
        model = ConvNet(1, 3, 8, width=4, depth=2,
                        rng=np.random.default_rng(2))
        learner = UpperBoundLearner(model,
                                    config=LearnerConfig(beta=1,
                                                         train_epochs=1))
        rng = np.random.default_rng(0)
        images = rng.standard_normal((4, 1, 8, 8)).astype(np.float32)
        labels = np.array([0, 1, 2, 0], dtype=np.int64)
        learner._images.append(images)
        learner._labels.append(labels)
        state = learner.checkpoint()
        assert any(key.startswith("model.") for key in state)
        assert "extra.seen_images" in state

        other = UpperBoundLearner(
            ConvNet(1, 3, 8, width=4, depth=2, rng=np.random.default_rng(9)),
            config=LearnerConfig(beta=1, train_epochs=1))
        other.restore(state)
        x, y = other.training_set()
        np.testing.assert_array_equal(x, images)
        np.testing.assert_array_equal(y, labels)
