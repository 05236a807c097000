"""Edge-case tests for the streaming loop and learners."""

import numpy as np
import pytest

from repro.buffer.buffer import RawBuffer, SyntheticBuffer
from repro.buffer.selection import (EXTRA_STRATEGY_NAMES, STRATEGY_NAMES,
                                    make_strategy)
from repro.condensation.one_step import OneStepMatcher
from repro.core.deco import DECOLearner
from repro.core.learner import LearnerConfig
from repro.core.pseudo_label import (MajorityVotePseudoLabeler,
                                     predict_with_confidence)
from repro.core.replay import ReplayLearner
from repro.data.datasets import DatasetSpec, make_dataset
from repro.data.stream import Stream, StreamSegment, make_stream
from repro.nn.convnet import ConvNet

DS = make_dataset(DatasetSpec(name="edge", num_classes=3, image_size=8,
                              train_per_class=8, test_per_class=4,
                              num_groups=3, num_sessions=1), seed=0)


def model(seed=0):
    return ConvNet(3, 3, 8, width=4, depth=2, rng=np.random.default_rng(seed))


def deco_learner(threshold=0.4, beta=2):
    buffer = SyntheticBuffer(3, 1, DS.image_shape())
    buffer.init_random(np.random.default_rng(0))
    return DECOLearner(model(), buffer,
                       condenser=OneStepMatcher(iterations=1, alpha=0.0),
                       labeler=MajorityVotePseudoLabeler(threshold),
                       config=LearnerConfig(beta=beta, train_epochs=2),
                       rng=np.random.default_rng(0))


class TestStreamShapes:
    def test_single_segment_stream(self):
        stream = Stream(DS, np.arange(DS.num_train), segment_size=1000)
        assert len(stream) == 1
        learner = deco_learner(beta=5)
        history = learner.run(stream, x_test=DS.x_test, y_test=DS.y_test)
        # beta=5 never triggers mid-stream; the final update still happens
        # and exactly one evaluation is recorded.
        assert len(history.accuracy) == 1

    def test_stream_shorter_than_beta(self):
        stream = make_stream(DS, segment_size=10, stc=8, rng=0)
        learner = deco_learner(beta=100)
        history = learner.run(stream, x_test=DS.x_test, y_test=DS.y_test)
        assert 0.0 <= history.final_accuracy <= 1.0

    def test_run_without_test_data_returns_empty_history(self):
        stream = make_stream(DS, segment_size=8, stc=8, rng=0)
        history = deco_learner().run(stream)
        assert history.accuracy == []
        assert len(history.diagnostics) == len(stream)


class TestEmptySegment:
    @pytest.mark.parametrize("name",
                             STRATEGY_NAMES + EXTRA_STRATEGY_NAMES + ("learner",))
    def test_empty_segment_is_a_no_op(self, name):
        net = model()
        buffer = RawBuffer(6, DS.image_shape())
        strategy = make_strategy("herding" if name == "learner" else name)
        learner = ReplayLearner(net, buffer, strategy,
                                rng=np.random.default_rng(0))
        first = next(iter(make_stream(DS, segment_size=8, stc=8, rng=0)))
        empty = StreamSegment(first.images[:0], first.hidden_labels[:0],
                              index=1, start=len(first))

        def snapshot():
            return {key: value.tobytes() for obj in (buffer, strategy)
                    for key, value in obj.state_dict().items()}

        # Before any sample, and once the buffer holds some.
        for warm_up in (None, first):
            if warm_up is not None:
                learner.observe_segment(warm_up)
            before = snapshot()
            if name == "learner":
                diag = learner.observe_segment(empty)
                assert diag["pseudo_label_accuracy"] == 0.0
            else:
                strategy.process_segment(buffer, empty.images,
                                         np.empty(0, dtype=np.int64),
                                         np.empty(0, dtype=np.float32),
                                         model=net,
                                         rng=np.random.default_rng(1))
            assert snapshot() == before
        if name == "learner":
            labels, confidences = predict_with_confidence(net, empty.images)
            assert labels.shape == confidences.shape == (0,)
            assert labels.dtype == np.int64
            assert confidences.dtype == np.float32


class TestRejectingLabeler:
    def test_everything_filtered_still_runs(self):
        # Threshold 0.9 with mixed segments rejects all classes; DECO must
        # degrade gracefully to "train on the initial buffer".
        stream = make_stream(DS, segment_size=24, stc=2, rng=0)
        learner = deco_learner(threshold=0.9)
        before = learner.buffer.images.copy()
        history = learner.run(stream, x_test=DS.x_test, y_test=DS.y_test)
        assert 0.0 <= history.final_accuracy <= 1.0
        retained = [d["retained_fraction"] for d in history.diagnostics]
        assert max(retained) < 0.5
        # A segment with no active classes must not touch the buffer.
        if max(retained) == 0.0:
            np.testing.assert_array_equal(learner.buffer.images, before)


class TestTinyBuffers:
    def test_ipc_one_buffer_has_no_positive_pairs(self):
        # With IpC=1 the discrimination loss has no positives; alpha>0 must
        # not crash and must simply contribute nothing.
        buffer = SyntheticBuffer(3, 1, DS.image_shape())
        buffer.init_random(np.random.default_rng(0))
        learner = DECOLearner(model(), buffer,
                              condenser=OneStepMatcher(iterations=1,
                                                       alpha=0.1),
                              config=LearnerConfig(beta=2, train_epochs=2),
                              rng=np.random.default_rng(0))
        stream = make_stream(DS, segment_size=8, stc=8, rng=0)
        history = learner.run(stream, x_test=DS.x_test, y_test=DS.y_test)
        assert np.isfinite(history.final_accuracy)

    def test_capacity_one_raw_buffer(self):
        learner = ReplayLearner(model(), RawBuffer(1, DS.image_shape()),
                                make_strategy("fifo"),
                                config=LearnerConfig(beta=2, train_epochs=2),
                                rng=np.random.default_rng(0))
        stream = make_stream(DS, segment_size=8, stc=8, rng=0)
        history = learner.run(stream, x_test=DS.x_test, y_test=DS.y_test)
        assert len(learner.buffer) == 1
        assert 0.0 <= history.final_accuracy <= 1.0


class TestBetaCadence:
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_update_count_follows_beta(self, beta):
        calls = []
        learner = deco_learner(beta=beta)
        original = learner.update_model

        def counting_update():
            calls.append(1)
            original()

        learner.update_model = counting_update
        stream = make_stream(DS, segment_size=6, stc=8, rng=0)
        learner.run(stream, x_test=DS.x_test, y_test=DS.y_test)
        n = len(stream)
        scheduled = n // beta
        expected = scheduled + (0 if n % beta == 0 else 1)  # + final catch-up
        assert len(calls) == expected
