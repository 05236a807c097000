"""Unit tests for the selection baselines (repro.buffer.selection)."""

import hashlib

import numpy as np
import pytest

from repro.buffer.buffer import RawBuffer
from repro.buffer.selection import (FIFO, STRATEGY_NAMES, GSSGreedy, KCenter,
                                    RandomReservoir, SelectiveBP,
                                    encode_features, make_strategy)
from repro.core.replay import ReplayLearner
from repro.experiments.common import prepare_experiment, run_method
from repro.nn.convnet import ConvNet

SHAPE = (1, 8, 8)


def seg(rng, n, label=0):
    images = rng.standard_normal((n, *SHAPE)).astype(np.float32)
    labels = np.full(n, label, dtype=np.int64)
    confidences = rng.random(n).astype(np.float32)
    return images, labels, confidences


@pytest.fixture
def model(rng):
    return ConvNet(1, 4, 8, width=4, depth=2, rng=rng)


class TestFactory:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_all_names_construct(self, name):
        assert make_strategy(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown strategy"):
            make_strategy("oracle")


class TestRandomReservoir:
    def test_fills_before_replacing(self, rng):
        buf = RawBuffer(5, SHAPE)
        RandomReservoir().process_segment(buf, *seg(rng, 3), rng=rng)
        assert len(buf) == 3

    def test_capacity_never_exceeded(self, rng):
        buf = RawBuffer(4, SHAPE)
        strategy = RandomReservoir()
        for _ in range(10):
            strategy.process_segment(buf, *seg(rng, 6), rng=rng)
        assert len(buf) == 4

    def test_retention_is_roughly_uniform(self):
        # Feed 0..199 one at a time into a capacity-20 reservoir many times;
        # early and late items should be retained at similar rates.
        early_hits = late_hits = 0
        for trial in range(200):
            rng = np.random.default_rng(trial)
            buf = RawBuffer(20, SHAPE)
            strategy = RandomReservoir()
            for i in range(100):
                images = np.full((1, *SHAPE), float(i), dtype=np.float32)
                strategy.process_segment(buf, images, np.array([0]),
                                         np.array([1.0]), rng=rng)
            values = buf.images[:, 0, 0, 0]
            early_hits += int((values < 50).sum())
            late_hits += int((values >= 50).sum())
        ratio = early_hits / max(late_hits, 1)
        assert 0.7 < ratio < 1.4


class TestFIFO:
    def test_replaces_oldest_first(self, rng):
        buf = RawBuffer(2, SHAPE)
        strategy = FIFO()
        for i in range(5):
            images = np.full((1, *SHAPE), float(i), dtype=np.float32)
            strategy.process_segment(buf, images, np.array([i]),
                                     np.array([1.0]), rng=rng)
        kept = sorted(buf.labels[: len(buf)].tolist())
        assert kept == [3, 4]

    def test_wraps_around(self, rng):
        buf = RawBuffer(3, SHAPE)
        strategy = FIFO()
        for i in range(7):
            images = np.full((1, *SHAPE), float(i), dtype=np.float32)
            strategy.process_segment(buf, images, np.array([i]),
                                     np.array([1.0]), rng=rng)
        assert sorted(buf.labels.tolist()) == [4, 5, 6]


class TestSelectiveBP:
    def test_keeps_low_confidence_samples(self, rng):
        buf = RawBuffer(2, SHAPE)
        strategy = SelectiveBP()
        images = rng.standard_normal((4, *SHAPE)).astype(np.float32)
        labels = np.arange(4)
        confidences = np.array([0.9, 0.1, 0.5, 0.95], dtype=np.float32)
        strategy.process_segment(buf, images, labels, confidences, rng=rng)
        kept = set(buf.labels.tolist())
        assert kept == {1, 2}  # the two lowest-confidence samples

    def test_high_confidence_newcomer_rejected(self, rng):
        buf = RawBuffer(1, SHAPE)
        strategy = SelectiveBP()
        x, y, _ = seg(rng, 1, label=7)
        strategy.process_segment(buf, x, y, np.array([0.2]), rng=rng)
        x2, y2, _ = seg(rng, 1, label=8)
        strategy.process_segment(buf, x2, y2, np.array([0.8]), rng=rng)
        assert buf.labels[0] == 7


class TestKCenter:
    def test_requires_model(self, rng):
        buf = RawBuffer(2, SHAPE)
        with pytest.raises(ValueError, match="model"):
            KCenter().process_segment(buf, *seg(rng, 3), rng=rng)

    def test_keeps_everything_under_capacity(self, rng, model):
        buf = RawBuffer(10, SHAPE)
        KCenter().process_segment(buf, *seg(rng, 4), model=model, rng=rng)
        assert len(buf) == 4

    def test_respects_capacity(self, rng, model):
        buf = RawBuffer(5, SHAPE)
        strategy = KCenter()
        for _ in range(3):
            strategy.process_segment(buf, *seg(rng, 6), model=model, rng=rng)
        assert len(buf) == 5

    def test_greedy_k_center_covers_clusters(self, rng):
        # Three tight clusters; selecting 3 centers must take one from each.
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        points = np.concatenate([
            c + 0.1 * rng.standard_normal((5, 2)) for c in centers])
        chosen = KCenter._greedy_k_center(points.astype(np.float32), 3, rng)
        clusters = {int(i) // 5 for i in chosen}
        assert clusters == {0, 1, 2}


class TestGSSGreedy:
    def test_requires_model(self, rng):
        buf = RawBuffer(2, SHAPE)
        with pytest.raises(ValueError, match="model"):
            GSSGreedy().process_segment(buf, *seg(rng, 2), rng=rng)

    def test_fills_and_replaces_within_capacity(self, rng, model):
        buf = RawBuffer(4, SHAPE)
        strategy = GSSGreedy()
        for _ in range(5):
            strategy.process_segment(buf, *seg(rng, 3), model=model, rng=rng)
        assert len(buf) == 4
        scores = buf.get_aux("gss_score")
        assert (scores >= 0).all() and (scores <= 2.0 + 1e-5).all()

    def test_duplicate_samples_get_high_similarity_score(self, rng, model):
        buf = RawBuffer(8, SHAPE)
        strategy = GSSGreedy()
        x = rng.standard_normal((1, *SHAPE)).astype(np.float32)
        strategy.process_segment(buf, x, np.array([0]), np.array([1.0]),
                                 model=model, rng=rng)
        strategy.process_segment(buf, x.copy(), np.array([0]), np.array([1.0]),
                                 model=model, rng=rng)
        scores = buf.get_aux("gss_score")
        # The duplicate's max-similarity is ~1 -> score ~2.
        assert scores[1] == pytest.approx(2.0, abs=0.05)

    def test_grad_embedding_factorization(self, rng, model):
        strategy = GSSGreedy()
        x = rng.standard_normal((3, *SHAPE)).astype(np.float32)
        y = np.array([0, 1, 2])
        errors, feats = strategy._grad_embedding(
            model, encode_features(model, x), y)
        assert errors.shape == (3, model.num_classes)
        assert feats.shape == (3, model.feature_dim)
        # error vector sums to ~0 (softmax minus one-hot)
        np.testing.assert_allclose(errors.sum(axis=1), 0.0, atol=1e-5)


class TestLearnerFeatures:
    """GSS and k-center build on the features the replay learner
    pseudo-labeled the segment from, with the same buffer bytes (images,
    labels, metadata) and strategy state as when they encode the segment
    themselves."""

    @staticmethod
    def buffer_digests(prepared, name, monkeypatch):
        digests = []
        observe = ReplayLearner.observe_segment

        def recording(learner, segment):
            diag = observe(learner, segment)
            state = {**learner.buffer.state_dict(),
                     **learner.strategy.state_dict()}
            digests.append(hashlib.sha256(b"".join(
                key.encode() + value.tobytes()
                for key, value in sorted(state.items()))).digest())
            return diag

        with monkeypatch.context() as m:
            m.setattr(ReplayLearner, "observe_segment", recording)
            run_method(prepared, name, 5, seed=1)
        return digests

    @pytest.mark.parametrize("name", ["gss_greedy", "k_center"])
    def test_buffer_matches_self_encoded_path(self, name, monkeypatch):
        prepared = prepare_experiment("core50", "micro", seed=0)
        strategy_cls = type(make_strategy(name))
        greedy = KCenter._greedy_k_center
        k_center_runs = []
        monkeypatch.setattr(KCenter, "_greedy_k_center", staticmethod(
            lambda *a: k_center_runs.append(1) or greedy(*a)))
        supplied = self.buffer_digests(prepared, name, monkeypatch)
        if name == "k_center":  # the pool outgrew the buffer: features used
            assert k_center_runs
        process = strategy_cls.process_segment
        monkeypatch.setattr(
            strategy_cls, "process_segment",
            lambda self, *a, features=None, **kw: process(self, *a, **kw))
        self_encoded = self.buffer_digests(prepared, name, monkeypatch)
        assert len(supplied) == len(self_encoded) > 1
        for step, (got, want) in enumerate(zip(supplied, self_encoded)):
            assert got == want, f"segment {step}"
