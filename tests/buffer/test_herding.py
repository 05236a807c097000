"""Unit tests for the herding selection strategy (iCaRL-style, [23])."""

import gc

import numpy as np
import pytest

from repro.buffer.buffer import RawBuffer
from repro.buffer.selection import Herding, encode_features, make_strategy
from repro.core.pseudo_label import predict_with_confidence
from repro.core.replay import ReplayLearner
from repro.data.stream import StreamSegment
from repro.nn.convnet import ConvNet
from repro.nn.tensor import Tensor, no_grad
from repro.obs.memory import default_ledger

SHAPE = (1, 8, 8)


@pytest.fixture
def model(rng):
    return ConvNet(1, 2, 8, width=4, depth=2, rng=rng)


class TestHerdingAlgorithm:
    def test_greedy_order_prefers_mean_proximity(self):
        # 1D features: mean of {0, 1, 10} is ~3.67; the greedy first pick
        # is the single point closest to the mean.
        feats = np.array([[0.0], [1.0], [10.0]])
        order = Herding._herd(feats, 3)
        assert order[0] == 1  # 1.0 is closest to 3.67

    def test_quota_respected(self):
        feats = np.random.default_rng(0).standard_normal((10, 4))
        assert len(Herding._herd(feats, 3)) == 3

    def test_quota_larger_than_pool(self):
        feats = np.random.default_rng(0).standard_normal((2, 4))
        assert len(Herding._herd(feats, 5)) == 2

    def test_selected_subset_tracks_class_mean(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((30, 6))
        chosen = Herding._herd(feats, 5)
        random_pick = rng.choice(30, 5, replace=False)
        mean = feats.mean(axis=0)
        herd_gap = np.linalg.norm(mean - feats[chosen].mean(axis=0))
        rand_gap = np.linalg.norm(mean - feats[random_pick].mean(axis=0))
        assert herd_gap <= rand_gap + 1e-9


class TestHerdingStrategy:
    def test_requires_model(self, rng):
        buf = RawBuffer(4, SHAPE)
        images = rng.standard_normal((3, *SHAPE)).astype(np.float32)
        with pytest.raises(ValueError, match="model"):
            Herding().process_segment(buf, images, np.zeros(3, dtype=np.int64),
                                      np.ones(3, dtype=np.float32), rng=rng)

    def test_fills_buffer_class_balanced(self, rng, model):
        buf = RawBuffer(4, SHAPE)
        strategy = Herding()
        for cls in (0, 1):
            images = rng.standard_normal((6, *SHAPE)).astype(np.float32)
            strategy.process_segment(buf, images,
                                     np.full(6, cls, dtype=np.int64),
                                     np.ones(6, dtype=np.float32),
                                     model=model, rng=rng)
        counts = np.bincount(buf.labels[: len(buf)], minlength=2)
        assert counts[0] == counts[1] == 2

    def test_capacity_never_exceeded(self, rng, model):
        buf = RawBuffer(3, SHAPE)
        strategy = Herding()
        for _ in range(4):
            images = rng.standard_normal((5, *SHAPE)).astype(np.float32)
            labels = rng.integers(0, 2, 5)
            strategy.process_segment(buf, images, labels,
                                     np.ones(5, dtype=np.float32),
                                     model=model, rng=rng)
        assert len(buf) <= 3

    def test_registered_in_factory(self):
        assert isinstance(make_strategy("herding"), Herding)

    def test_pool_is_bounded(self, rng, model):
        strategy = Herding()
        buf = RawBuffer(4, SHAPE)  # quota = 2 per class
        for _ in range(20):
            images = rng.standard_normal((4, *SHAPE)).astype(np.float32)
            strategy.process_segment(buf, images,
                                     np.zeros(4, dtype=np.int64),
                                     np.ones(4, dtype=np.float32),
                                     model=model, rng=rng)
        assert len(strategy._pool_x[0]) <= 8  # 4x quota bound


# ----------------------------------------------------------------------
# Feature cache + vectorised greedy pick: same picks as the plain loop that
# re-encodes every pool on every segment.
# ----------------------------------------------------------------------
def reference_herd(feats, quota):
    """Plain greedy loop: scan the available rows in ascending order."""
    mean = feats.mean(axis=0)
    chosen = []
    running = np.zeros_like(mean)
    available = list(range(len(feats)))
    for k in range(min(quota, len(feats))):
        best, best_dist = -1, np.inf
        for i in available:
            candidate = (running * k + feats[i]) / (k + 1)
            dist = float(np.linalg.norm(mean - candidate))
            if dist < best_dist:
                best, best_dist = i, dist
        chosen.append(best)
        available.remove(best)
        running = (running * k + feats[best]) / (k + 1)
    return chosen


def encode_pool(model, pool):
    with no_grad():
        return model.features(Tensor(np.stack(pool))).data


class ReferenceHerding:
    """Herding that re-encodes every candidate pool on every segment."""

    def __init__(self):
        self.pools = {}

    def process_segment(self, buffer, images, labels, model):
        quota = max(1, buffer.capacity // model.num_classes)
        for x, y in zip(images, labels):
            self.pools.setdefault(int(y), []).append(x)
        for cls, pool in self.pools.items():
            if len(pool) > 4 * quota:
                keep = reference_herd(encode_pool(model, pool), 2 * quota)
                self.pools[cls] = [pool[i] for i in keep]
        buffer.count = 0
        for cls, pool in sorted(self.pools.items()):
            for i in reference_herd(encode_pool(model, pool), quota):
                if buffer.is_full:
                    return
                buffer.add(pool[i], cls)


class RowSpy:
    """Stands in for ``model.features``; records the rows of every call."""

    def __init__(self, model):
        self.inner = model.features
        self.calls = []

    def __call__(self, x):
        self.calls.append(len(x.data))
        return self.inner(x)

    def take(self):
        calls, self.calls = self.calls, []
        return calls


def perturb_in_place(model, scale=1.05):
    for p in model.parameters():
        p.data *= np.float32(scale)


def segment(rng, n=6, classes=2):
    images = rng.standard_normal((n, *SHAPE)).astype(np.float32)
    return images, rng.integers(0, classes, n), np.ones(n, dtype=np.float32)


def assert_matches_reference(buf, strategy, ref_buf, reference, step):
    """Buffer bytes and pools equal the re-encoding reference's."""
    got, want = buf.as_training_set(), ref_buf.as_training_set()
    assert got[0].tobytes() == want[0].tobytes(), f"segment {step}"
    assert got[1].tobytes() == want[1].tobytes(), f"segment {step}"
    state = strategy.state_dict()
    assert set(state) == {f"pool.{c}" for c in reference.pools}
    for cls, pool in reference.pools.items():
        assert state[f"pool.{cls}"].tobytes() == np.stack(pool).tobytes()


def pool_rows(strategy):
    return sum(len(pool) for pool in strategy._pool_x.values())


class TestHerdEquivalence:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,dim,quota", [(30, 16, 5), (9, 4, 20),
                                             (12, 7, 1), (40, 64, 40)])
    def test_matches_plain_loop(self, dtype, n, dim, quota):
        feats = np.random.default_rng(n * dim).standard_normal((n, dim))
        feats = (feats * 3.0).astype(dtype)
        assert Herding._herd(feats, quota) == reference_herd(feats, quota)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [16, 33, 128])
    def test_matches_plain_loop_on_rounding_ties(self, dtype, dim):
        # Cyclic shifts of one vector are equidistant from their (constant)
        # mean in exact arithmetic, so every pick is decided by how the row
        # norm rounds: it must round exactly as ``np.linalg.norm`` does.
        v = np.random.default_rng(dim).standard_normal(dim).astype(dtype)
        feats = np.stack([np.roll(v, shift) for shift in range(dim)])
        assert Herding._herd(feats, 8) == reference_herd(feats, 8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_duplicate_rows_tie_to_lowest_index(self, dtype):
        base = np.random.default_rng(5).standard_normal((4, 6)).astype(dtype)
        feats = np.concatenate([base, base, base[::-1]])
        assert (Herding._herd(feats, len(feats))
                == reference_herd(feats, len(feats)))

    def test_all_rows_identical(self):
        feats = np.ones((5, 3), dtype=np.float32)
        assert Herding._herd(feats, 3) == [0, 1, 2]


class TestFeatureCache:
    @pytest.mark.parametrize("num_threads", [1, 2])
    def test_trajectory_matches_full_reencode(self, rng, num_threads,
                                              blas_threads):
        blas_threads(num_threads)
        model = ConvNet(1, 2, 8, width=4, depth=2, rng=rng)
        buf, ref_buf = RawBuffer(4, SHAPE), RawBuffer(4, SHAPE)  # quota 2
        strategy, reference = Herding(), ReferenceHerding()
        offered = np.zeros(2, dtype=np.int64)
        for step in range(14):
            if step == 5:  # a retrain: weights change in place
                perturb_in_place(model)
            if step == 9:  # a restore: the pools move to a fresh instance
                fresh = Herding()
                fresh.load_state_dict(strategy.state_dict())
                strategy = fresh
            if step == 11:  # a retrain that swaps the parameter arrays
                for p in model.parameters():
                    p.data = p.data + np.float32(0.01)
            images, labels, conf = segment(rng, n=7)
            strategy.process_segment(buf, images, labels, conf, model=model)
            reference.process_segment(ref_buf, images, labels, model)
            offered += np.bincount(labels, minlength=2)
            assert_matches_reference(buf, strategy, ref_buf, reference, step)
        # Both classes were offered more than the 4x quota bound (8) yet
        # their pools are within it, so pruning ran.
        assert offered.min() > 8
        assert max(len(p) for p in reference.pools.values()) <= 8

    def test_encodes_each_new_sample_once(self, rng, model):
        spy = model.features = RowSpy(model)
        strategy, buf = Herding(), RawBuffer(4, SHAPE)
        for _ in range(6):
            images, labels, conf = segment(rng)
            strategy.process_segment(buf, images, labels, conf, model=model)
            assert spy.take() == [len(images)]

    def test_weight_change_reencodes_every_pool_row_once(self, rng, model):
        spy = model.features = RowSpy(model)
        strategy, buf = Herding(), RawBuffer(4, SHAPE)
        for _ in range(4):
            strategy.process_segment(buf, *segment(rng), model=model)
        spy.take()
        before = pool_rows(strategy)
        perturb_in_place(model)
        images, labels, conf = segment(rng)
        strategy.process_segment(buf, images, labels, conf, model=model)
        assert spy.take() == [before + len(images)]
        strategy.process_segment(buf, *segment(rng), model=model)
        assert spy.take() == [6]

    def test_restore_reencodes_restored_pools_once(self, rng, model):
        spy = model.features = RowSpy(model)
        strategy, buf = Herding(), RawBuffer(4, SHAPE)
        for _ in range(4):
            strategy.process_segment(buf, *segment(rng), model=model)
        restored = Herding()
        restored.load_state_dict(strategy.state_dict())
        spy.take()
        images, labels, conf = segment(rng)
        restored.process_segment(buf, images, labels, conf, model=model)
        assert spy.take() == [pool_rows(strategy) + len(images)]
        restored.process_segment(buf, *segment(rng), model=model)
        assert spy.take() == [6]

    def test_restore_over_live_instance_drops_cache(self, rng, model):
        spy = model.features = RowSpy(model)
        strategy, buf = Herding(), RawBuffer(4, SHAPE)
        for _ in range(3):
            strategy.process_segment(buf, *segment(rng), model=model)
        saved = strategy.state_dict()
        saved_rows = pool_rows(strategy)
        for _ in range(3):
            strategy.process_segment(buf, *segment(rng), model=model)
        strategy.load_state_dict(saved)
        spy.take()
        images, labels, conf = segment(rng)
        strategy.process_segment(buf, images, labels, conf, model=model)
        assert spy.take() == [saved_rows + len(images)]


def herd_spy(strategy):
    """Wraps ``strategy._herd``; returns the list every call appends the
    class of the rows it herds to."""
    calls, inner = [], strategy._herd

    def herd(feats, quota):
        calls.append(next(cls for cls, rows in strategy._pool_f.items()
                          if rows is feats))
        return inner(feats, quota)

    strategy._herd = herd
    return calls


def swap_parameter_arrays(model):
    for p in model.parameters():
        p.data = p.data + np.float32(0.01)


class TestSharedFeatures:
    def test_supplied_features_are_not_reencoded(self, rng, model):
        twin = model.clone()  # same weights, so the same feature bytes
        spy = model.features = RowSpy(model)
        strategy, buf = Herding(), RawBuffer(4, SHAPE)
        for _ in range(6):
            images, labels, conf = segment(rng)
            strategy.process_segment(buf, images, labels, conf, model=model,
                                     features=encode_features(twin, images))
            assert spy.take() == []

    def test_learner_encodes_each_image_once(self, rng, model):
        spy = model.features = RowSpy(model)
        learner = ReplayLearner(model, RawBuffer(4, SHAPE), Herding(), rng=0)
        for step in range(6):
            images = segment(rng)[0]
            learner.observe_segment(StreamSegment(
                images, np.zeros(len(images), dtype=np.int64), step, 0))
            assert sum(spy.take()) == len(images)

    def test_herds_only_classes_that_changed(self, rng):
        model = ConvNet(1, 3, 8, width=4, depth=2, rng=rng)
        strategy, buf = Herding(), RawBuffer(6, SHAPE)  # quota 2
        herded = herd_spy(strategy)
        pruned_any = False
        for step in range(12):
            images, labels, conf = segment(rng, n=5, classes=3)
            if step % 2:  # every other segment shows a single class
                labels[:] = step % 3
            before = {cls: len(pool) for cls, pool in strategy._pool_x.items()}
            strategy.process_segment(buf, images, labels, conf, model=model)
            touched = sorted(set(labels.tolist()))
            pruned = [cls for cls in touched
                      if before.get(cls, 0) + np.sum(labels == cls) > 8]
            pruned_any |= bool(pruned)
            assert sorted(herded) == sorted(touched + pruned), f"segment {step}"
            herded.clear()
        assert pruned_any

    @pytest.mark.parametrize("event", ["perturb_in_place", "swap_arrays",
                                       "load_state_dict"])
    def test_every_class_reherds_after(self, rng, event):
        model = ConvNet(1, 3, 8, width=4, depth=2, rng=rng)
        strategy, buf = Herding(), RawBuffer(6, SHAPE)
        for _ in range(4):
            strategy.process_segment(buf, *segment(rng, n=9, classes=3),
                                     model=model)
        assert sorted(strategy._pool_x) == [0, 1, 2]
        herded = herd_spy(strategy)
        if event == "perturb_in_place":
            perturb_in_place(model)
        elif event == "swap_arrays":
            swap_parameter_arrays(model)
        else:
            strategy.load_state_dict(strategy.state_dict())
        images, _, conf = segment(rng, n=3)
        strategy.process_segment(buf, images, np.zeros(3, dtype=np.int64),
                                 conf, model=model)
        assert sorted(set(herded)) == [0, 1, 2]

    def test_learner_trajectory_matches_full_reencode(self, rng):
        # TestFeatureCache::test_trajectory_matches_full_reencode with the
        # learner pseudo-labeling each segment and supplying its features.
        model = ConvNet(1, 2, 8, width=4, depth=2, rng=rng)
        buf, ref_buf = RawBuffer(4, SHAPE), RawBuffer(4, SHAPE)  # quota 2
        learner = ReplayLearner(model, buf, Herding(), rng=0)
        reference = ReferenceHerding()
        offered = np.zeros(2, dtype=np.int64)
        for step in range(14):
            if step == 5:
                perturb_in_place(model)
            if step == 9:
                fresh = Herding()
                fresh.load_state_dict(learner.strategy.state_dict())
                learner.strategy = fresh
            if step == 11:
                swap_parameter_arrays(model)
            images = segment(rng, n=7)[0]
            labels, _ = predict_with_confidence(model, images)
            learner.observe_segment(StreamSegment(images, labels, step, 0))
            reference.process_segment(ref_buf, images, labels, model)
            offered += np.bincount(labels, minlength=2)
            assert_matches_reference(buf, learner.strategy, ref_buf, reference,
                                     step)
        # Some class was offered more than the 4x quota bound (8), so
        # pruning ran.
        assert offered.max() > 8


class TestPoolLedger:
    def test_pools_and_rows_are_tracked(self, rng, model):
        account = Herding.ledger_account
        gc.collect()
        before = default_ledger.totals().get(account, 0)
        weights = sum(p.data.nbytes for p in model.parameters())
        strategy, buf = Herding(), RawBuffer(4, SHAPE)
        for _ in range(12):
            strategy.process_segment(buf, *segment(rng), model=model)
            pools = sum(x.nbytes for p in strategy._pool_x.values() for x in p)
            rows = pool_rows(strategy) * model.feature_dim * 4
            assert (default_ledger.totals()[account]
                    == before + pools + rows + weights)
        restored = Herding()
        restored.load_state_dict(strategy.state_dict())
        assert (default_ledger.totals()[account]
                == before + 2 * pools + rows + weights)
        del strategy, restored
        gc.collect()
        assert default_ledger.totals().get(account, 0) == before

    def test_footprint_excludes_pools(self, rng, model):
        buf = RawBuffer(4, SHAPE)
        learner = ReplayLearner(model, buf, Herding(), rng=rng)
        for _ in range(3):
            learner.strategy.process_segment(buf, *segment(rng), model=model)
        foot = learner.memory_footprint()
        assert foot["total_bytes"] == buf.memory_bytes + sum(
            p.data.nbytes for p in model.parameters())
