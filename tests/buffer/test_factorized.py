"""Factorized condensed storage: decode fidelity, packing, persistence,
and the buffer byte-accounting fixes that ride with it."""

import copy
import functools

import numpy as np
import pytest

from repro.buffer.buffer import RawBuffer, SyntheticBuffer
from repro.buffer.factorized import FactorizedSyntheticBuffer, resize_matrix
from repro.obs.memory import default_ledger

SHAPE = (3, 8, 8)


class TestResizeMatrix:
    def test_identity_when_sizes_match(self):
        np.testing.assert_array_equal(resize_matrix(5, 5), np.eye(5))

    def test_rows_are_convex_combinations(self):
        for out_size, in_size in [(8, 4), (4, 8), (12, 5), (7, 3)]:
            m = resize_matrix(out_size, in_size)
            assert m.shape == (out_size, in_size)
            assert m.dtype == np.float32
            np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-6)
            assert (m >= 0).all()

    def test_cached_and_read_only(self):
        m = resize_matrix(8, 4)
        assert resize_matrix(8, 4) is m
        with pytest.raises(ValueError):
            m[0, 0] = 1.0

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            resize_matrix(0, 4)


class TestFactorizedGeometry:
    def test_storage_shape_uses_ceiling(self):
        buf = FactorizedSyntheticBuffer(2, 1, (3, 7, 9), factor=2)
        assert buf.storage_shape == (3, 4, 5)
        assert buf.images.shape == (2, 3, 4, 5)
        assert buf.image_shape == (3, 7, 9)

    def test_factor_one_is_full_resolution(self):
        buf = FactorizedSyntheticBuffer(2, 1, SHAPE, factor=1)
        assert buf.storage_shape == SHAPE

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            FactorizedSyntheticBuffer(2, 1, SHAPE, factor=0)
        # Not an integer: fails at construction, not deep inside numpy.
        for factor in (2.5, 2.0, True, "2"):
            with pytest.raises(ValueError, match="integer"):
                FactorizedSyntheticBuffer(2, 1, SHAPE, factor=factor)
        # Larger than the image's smaller side: every such factor would
        # store the same 1-pixel payload.
        for factor in (33, 64):
            with pytest.raises(ValueError, match=r"\[1, 32\]"):
                FactorizedSyntheticBuffer(2, 1, (3, 32, 48), factor=factor)
        largest = FactorizedSyntheticBuffer(2, 1, (3, 32, 48), factor=32)
        assert largest.storage_shape == (3, 1, 2)
        assert FactorizedSyntheticBuffer(
            2, 1, SHAPE, factor=np.int64(2)).decode_factor == 2

    def test_payload_is_exactly_inverse_square_of_factor(self):
        # The acceptance ratio: ceil(H/f)*ceil(W/f)/(H*W) of the f=1
        # payload at equal IpC — exactly 1/f**2 on even geometries.
        full = SyntheticBuffer(4, 2, SHAPE)
        fact = FactorizedSyntheticBuffer(4, 2, SHAPE, factor=2)
        assert fact.memory_bytes * 4 == full.memory_bytes

    def test_equal_bytes_at_f_squared_ipc(self):
        # The table1 operating point: f=2 at 4x IpC costs the same bytes.
        full = SyntheticBuffer(4, 2, SHAPE)
        fact = FactorizedSyntheticBuffer(4, 8, SHAPE, factor=2)
        assert fact.memory_bytes == full.memory_bytes


class TestDecode:
    def test_decode_is_bit_deterministic(self):
        buf = FactorizedSyntheticBuffer(3, 2, SHAPE, factor=2)
        buf.init_random(np.random.default_rng(0))
        a = buf.decode(buf.images)
        b = buf.decode(buf.images)
        assert a.shape == (6, *SHAPE)
        assert a.tobytes() == b.tobytes()

    def test_decode_preserves_constants(self):
        # Bilinear interpolation of a constant field is that constant.
        buf = FactorizedSyntheticBuffer(2, 1, SHAPE, factor=2)
        buf.images[:] = 3.5
        np.testing.assert_allclose(buf.decode(buf.images), 3.5, atol=1e-6)

    def test_decoded_images_selects_rows(self):
        buf = FactorizedSyntheticBuffer(3, 2, SHAPE, factor=2)
        buf.init_random(np.random.default_rng(1))
        rows = np.array([1, 4])
        np.testing.assert_array_equal(buf.decoded_images(rows),
                                      buf.decode(buf.images[rows]))

    def test_encode_grad_is_decode_transpose(self):
        # <U p, g> == <p, U^T g> for the separable upsample operator.
        buf = FactorizedSyntheticBuffer(2, 2, SHAPE, factor=2)
        rng = np.random.default_rng(2)
        p = rng.standard_normal((4, *buf.storage_shape)).astype(np.float32)
        g = rng.standard_normal((4, *SHAPE)).astype(np.float32)
        lhs = np.sum(buf.decode(p).astype(np.float64) * g)
        rhs = np.sum(p.astype(np.float64)
                     * buf.encode_grad(g).astype(np.float64))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5)

    def test_gradient_through_decode_matches_numeric_fd(self):
        # d/dp 0.5||decode(p) - t||^2 = encode_grad(decode(p) - t); check a
        # handful of entries against a central finite difference.
        buf = FactorizedSyntheticBuffer(1, 1, (1, 6, 6), factor=2)
        rng = np.random.default_rng(3)
        p = rng.standard_normal((1, *buf.storage_shape)).astype(np.float32)
        target = rng.standard_normal((1, 1, 6, 6)).astype(np.float32)

        def loss(payload):
            diff = buf.decode(payload.astype(np.float64)) - target
            return 0.5 * float(np.sum(diff * diff))

        analytic = buf.encode_grad(buf.decode(p.astype(np.float64)) - target)
        eps = 1e-4
        for idx in [(0, 0, 0, 0), (0, 0, 1, 2), (0, 0, 2, 1)]:
            plus, minus = p.astype(np.float64), p.astype(np.float64)
            plus = plus.copy(); plus[idx] += eps
            minus = minus.copy(); minus[idx] -= eps
            numeric = (loss(plus) - loss(minus)) / (2 * eps)
            np.testing.assert_allclose(analytic[idx], numeric, rtol=1e-4,
                                       atol=1e-6)

    def test_base_buffer_decode_is_identity_object(self):
        # The f=1 hot path hinges on this: decode returns the *same* array,
        # so identity-keyed step caches behave exactly as before.
        buf = SyntheticBuffer(2, 1, SHAPE)
        assert buf.decode(buf.images) is buf.images
        g = np.ones((2, *SHAPE), dtype=np.float32)
        assert buf.encode_grad(g) is g


class TestMixInit:
    def test_packs_distinct_encoded_reals(self):
        # DREAM mix at the equal-byte point: ipc = f**2 x base, every slot a
        # distinct real sample resized to storage resolution.  Constant
        # images survive bilinear resize exactly, making slots identifiable.
        buf = FactorizedSyntheticBuffer(2, 4, SHAPE, factor=2)
        values = np.arange(8, dtype=np.float32)
        x = np.stack([np.full(SHAPE, v, dtype=np.float32) for v in values])
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        buf.init_from_samples(x, y, rng=np.random.default_rng(0))
        for c in range(2):
            slot_values = {round(float(buf.images[r].flat[0]), 4)
                           for r in buf.class_indices(c)}
            assert slot_values <= set(values[y == c].tolist())
            assert len(slot_values) == 4  # all four slots distinct reals

    def test_shortfall_pads_at_storage_resolution(self):
        buf = FactorizedSyntheticBuffer(2, 3, SHAPE, factor=2)
        x = np.zeros((1, *SHAPE), dtype=np.float32)
        y = np.array([0])
        buf.init_from_samples(x, y, rng=np.random.default_rng(1))
        assert buf.images.shape == (6, *buf.storage_shape)
        assert np.allclose(buf.images[0], 0.0)      # the real sample
        assert 0.0 < buf.images[1].std() < 0.3      # jittered duplicate
        assert buf.images[3].std() > 0.5            # empty class: noise

    def test_as_training_set_is_decoded(self):
        buf = FactorizedSyntheticBuffer(2, 2, SHAPE, factor=2)
        buf.init_random(np.random.default_rng(2))
        x, y = buf.as_training_set()
        assert x.shape == (4, *SHAPE)
        np.testing.assert_array_equal(x, buf.decode(buf.images))
        np.testing.assert_array_equal(y, buf.labels)


class TestPersistence:
    def test_state_dict_round_trips_byte_for_byte(self):
        a = FactorizedSyntheticBuffer(3, 2, SHAPE, factor=2)
        a.init_random(np.random.default_rng(4))
        b = FactorizedSyntheticBuffer(3, 2, SHAPE, factor=2)
        b.load_state_dict(a.state_dict())
        assert b.images.tobytes() == a.images.tobytes()

    def test_plain_buffer_rejects_factorized_state(self):
        fact = FactorizedSyntheticBuffer(3, 2, SHAPE, factor=2)
        plain = SyntheticBuffer(3, 2, fact.storage_shape)  # same raw shapes
        with pytest.raises(ValueError, match="decode-factor"):
            plain.load_state_dict(fact.state_dict())

    def test_factorized_buffer_rejects_other_factor(self):
        f2 = FactorizedSyntheticBuffer(3, 2, (3, 8, 8), factor=2)
        f4 = FactorizedSyntheticBuffer(3, 2, (3, 16, 16), factor=4)
        with pytest.raises(ValueError, match="decode-factor"):
            f4.load_state_dict(f2.state_dict())


class TestCondenseThroughDecode:
    def test_condense_updates_storage_payload(self):
        from repro.condensation.one_step import OneStepMatcher
        from repro.nn.convnet import ConvNet

        buf = FactorizedSyntheticBuffer(3, 2, SHAPE, factor=2)
        rng = np.random.default_rng(5)
        reals = rng.standard_normal((18, *SHAPE)).astype(np.float32)
        labels = rng.integers(0, 3, 18)
        buf.init_from_samples(reals, labels, rng=rng)
        before = buf.images.copy()
        matcher = OneStepMatcher(iterations=2, alpha=0.1)
        deployed = ConvNet(3, 3, 8, width=4, depth=2,
                           rng=np.random.default_rng(6))
        stats = matcher.condense(
            buf, [0, 1, 2], reals, labels, None,
            model_factory=lambda r: ConvNet(3, 3, 8, width=4, depth=2, rng=r),
            rng=np.random.default_rng(7), deployed_model=deployed)
        assert stats.iterations == 2
        assert buf.images.shape == before.shape  # stays at storage res
        assert not np.array_equal(buf.images, before)
        assert np.isfinite(buf.images).all()


class TestAccountingFixes:
    """Regression pins for the three byte-accounting bugfixes."""

    def test_raw_buffer_ledger_tracks_aux_growth(self):
        buf = RawBuffer(4, SHAPE)
        base = default_ledger.totals().get("buffer.raw", 0)
        buf.add(np.zeros(SHAPE, dtype=np.float32), 0, confidence=0.5)
        after = default_ledger.totals()["buffer.raw"]
        assert after == base + 4 * 4  # the new float32 aux column
        assert after >= buf.memory_bytes

    def test_raw_buffer_ledger_tracks_state_restore(self):
        donor = RawBuffer(4, SHAPE)
        donor.add(np.zeros(SHAPE, dtype=np.float32), 0,
                  confidence=0.5, score=1.0)
        buf = RawBuffer(4, SHAPE)
        base = default_ledger.totals().get("buffer.raw", 0)
        buf.load_state_dict(donor.state_dict())
        after = default_ledger.totals()["buffer.raw"]
        assert after == base + 2 * 4 * 4  # both restored aux columns
        del donor

    def test_raw_buffer_memory_bytes_is_ledger_definition(self):
        before = default_ledger.totals().get("buffer.raw", 0)
        buf = RawBuffer(4, SHAPE)
        after = default_ledger.totals()["buffer.raw"]
        assert after - before == buf.memory_bytes

    def test_factorized_buffer_has_own_ledger_account(self):
        before = default_ledger.totals().get(
            "buffer.synthetic.factorized", 0)
        buf = FactorizedSyntheticBuffer(3, 2, SHAPE, factor=2)
        after = default_ledger.totals()["buffer.synthetic.factorized"]
        assert after == before + buf.memory_bytes
        assert buf.memory_bytes == buf.images.nbytes

    def test_buffer_nbytes_delegates_to_memory_bytes(self):
        from repro.condensation.one_step import OneStepMatcher
        from repro.core.deco import DECOLearner
        from repro.nn.convnet import ConvNet

        model = ConvNet(3, 3, 8, width=4, depth=2,
                        rng=np.random.default_rng(0))
        full = DECOLearner(copy.deepcopy(model), SyntheticBuffer(3, 2, SHAPE),
                           condenser=OneStepMatcher(iterations=1))
        fact = DECOLearner(
            copy.deepcopy(model),
            FactorizedSyntheticBuffer(3, 2, SHAPE, factor=2),
            condenser=OneStepMatcher(iterations=1))
        assert full.buffer_nbytes() == full.buffer.memory_bytes
        assert fact.buffer_nbytes() == fact.buffer.memory_bytes
        assert fact.buffer_nbytes() * 4 == full.buffer_nbytes()

    def test_reset_high_water_rebases_to_current_total(self):
        ledger = type(default_ledger)()
        ledger.record("buffer.raw", "a", 1000)
        ledger.record("buffer.raw", "b", 5000)
        ledger.drop("buffer.raw", "b")
        assert ledger.high_water_bytes == 6000  # old peak survives the drop
        assert ledger.reset_high_water() == 1000
        assert ledger.high_water_bytes == 1000

    def test_run_method_resets_peak_per_run(self):
        # A serial sweep must not leak an earlier run's peak into a later,
        # smaller one: footprint peaks are per-run after the reset.
        import repro.obs as obs
        key = "test.peak"
        obs.default_ledger.record(key, "spike", 10 ** 12)
        obs.default_ledger.drop(key, "spike")
        assert obs.default_ledger.high_water_bytes >= 10 ** 12
        obs.default_ledger.reset_high_water()
        assert obs.default_ledger.high_water_bytes < 10 ** 12


# -- mid-stream kill/resume ------------------------------------------------
#
# Same protocol as tests/persist/test_learner_resume.py, but the learner
# condenses into an f=2 factorized buffer: the checkpoint must round-trip
# the reduced-resolution payload (and its decode-factor stamp) such that a
# killed-and-resumed run is bit-identical to the uninterrupted one.

@functools.lru_cache(maxsize=1)
def _resume_fixture():
    from repro.core.deco import condense_offline
    from repro.core.training import train_model
    from repro.data.datasets import DatasetSpec, make_dataset
    from repro.nn.convnet import ConvNet

    ds = make_dataset(DatasetSpec(name="toy", num_classes=3, image_size=8,
                                  train_per_class=20, test_per_class=8,
                                  num_groups=3, num_sessions=1,
                                  class_separation=0.8, noise_std=0.5),
                      seed=0)
    model = ConvNet(3, 3, 8, width=8, depth=2, rng=np.random.default_rng(0))
    x, y = ds.pretrain_subset(0.3, rng=np.random.default_rng(0))
    train_model(model, x, y, epochs=10, lr=1e-2,
                rng=np.random.default_rng(0))
    return ds, model, condense_offline


def make_factorized_learner():
    """A deterministic DECO learner on an f=2 buffer; every call identical."""
    from repro.condensation.one_step import OneStepMatcher
    from repro.core.deco import DECOLearner
    from repro.core.learner import LearnerConfig
    from repro.core.pseudo_label import MajorityVotePseudoLabeler

    ds, model, condense_offline = _resume_fixture()
    # f**2 x the full-resolution IpC of the plain resume test: the
    # equal-byte operating point.
    buffer = FactorizedSyntheticBuffer(3, 8, ds.image_shape(), factor=2)
    learner = DECOLearner(
        copy.deepcopy(model), buffer,
        condenser=OneStepMatcher(iterations=2, alpha=0.1),
        labeler=MajorityVotePseudoLabeler(0.4),
        config=LearnerConfig(beta=2, train_epochs=4, lr=1e-2,
                             decode_factor=2),
        rng=np.random.default_rng(0))
    condense_offline(buffer, *ds.pretrain_subset(0.3, rng=0),
                     condenser=learner.condenser,
                     model_factory=learner.model_factory, rng=0)
    return learner


def _run_factorized(learner, **kwargs):
    from repro.data.stream import make_stream
    ds, _, _ = _resume_fixture()
    stream = make_stream(ds, segment_size=10, stc=10, rng=0)
    return learner.run(stream, x_test=ds.x_test, y_test=ds.y_test,
                       eval_every=2, **kwargs)


class TestFactorizedKillAndResume:
    def test_resumed_run_is_bit_identical(self, tmp_path):
        from repro.persist import list_learner_checkpoints

        reference = make_factorized_learner()
        ref_history = _run_factorized(reference)

        victim = make_factorized_learner()
        _run_factorized(victim, checkpoint_every=2, checkpoint_dir=tmp_path)
        bases = list_learner_checkpoints(tmp_path)
        assert len(bases) >= 2
        # Kill after the first checkpoint: delete every later one, resume.
        for base in bases[1:]:
            base.with_suffix(".npz").unlink()
            base.with_suffix(".json").unlink()

        resumed = make_factorized_learner()
        res_history = _run_factorized(resumed, checkpoint_dir=tmp_path,
                                      resume=True)

        assert res_history.accuracy == ref_history.accuracy
        assert res_history.final_accuracy == ref_history.final_accuracy
        for name, value in reference.model.state_dict().items():
            np.testing.assert_array_equal(
                value, resumed.model.state_dict()[name])
        # The payload itself (storage resolution), byte for byte.
        assert resumed.buffer.images.tobytes() == \
            reference.buffer.images.tobytes()
        assert resumed.buffer.storage_shape == reference.buffer.storage_shape
        assert (resumed.rng.bit_generator.state
                == reference.rng.bit_generator.state)

    def test_checkpoint_meta_records_buffer_kind(self, tmp_path):
        from repro.core.learner import LearnerHistory
        from repro.persist import latest_learner_checkpoint
        from repro.persist.learner_io import save_learner_checkpoint

        learner = make_factorized_learner()
        save_learner_checkpoint(tmp_path, learner, segment_index=0,
                                samples_seen=0, trained_at=0,
                                history=LearnerHistory())
        ckpt = latest_learner_checkpoint(tmp_path)
        meta = ckpt.meta["buffer"]
        assert meta["kind"] == "FactorizedSyntheticBuffer"
        assert meta["decode_factor"] == 2
        assert meta["memory_bytes"] == learner.buffer.memory_bytes

    def test_resume_into_wrong_factor_is_rejected(self, tmp_path):
        from repro.condensation.one_step import OneStepMatcher
        from repro.core.deco import DECOLearner
        from repro.core.learner import LearnerHistory
        from repro.persist import latest_learner_checkpoint, restore_learner
        from repro.persist.learner_io import save_learner_checkpoint

        donor = make_factorized_learner()
        save_learner_checkpoint(tmp_path, donor, segment_index=0,
                                samples_seen=0, trained_at=0,
                                history=LearnerHistory())
        ds, model, _ = _resume_fixture()
        # Same raw payload shapes (4x4 full-resolution buffer at the same
        # IpC), but f=1: the decode-factor stamp must refuse the restore.
        impostor = DECOLearner(
            copy.deepcopy(model),
            SyntheticBuffer(3, 8, (3, 4, 4)),
            condenser=OneStepMatcher(iterations=2, alpha=0.1))
        with pytest.raises(ValueError, match="decode-factor"):
            restore_learner(impostor, latest_learner_checkpoint(tmp_path),
                            LearnerHistory())
