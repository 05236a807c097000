"""Unit tests for the on-disk prepared-experiment cache."""

import pickle

import numpy as np
import pytest

from repro.experiments.common import prepare_experiment
from repro.persist import (content_hash, load_prepared, pack_prepared,
                           prepared_cache_path, save_prepared)

DATASET, PROFILE = "core50", "micro"


def fresh_prepared(seed=0):
    return prepare_experiment(DATASET, PROFILE, seed=seed, use_cache=False)


class TestRoundTrip:
    def test_load_is_bit_identical(self, tmp_path):
        prepared = fresh_prepared()
        save_prepared(tmp_path, prepared, seed=0)
        loaded = load_prepared(tmp_path, DATASET, PROFILE, 0)
        assert loaded is not None
        state, restate = prepared.model.state_dict(), loaded.model.state_dict()
        assert set(state) == set(restate)
        for name in state:
            np.testing.assert_array_equal(state[name], restate[name])
        np.testing.assert_array_equal(prepared.dataset.x_train,
                                      loaded.dataset.x_train)
        np.testing.assert_array_equal(prepared.pretrain_x, loaded.pretrain_x)
        assert loaded.pretrain_accuracy == prepared.pretrain_accuracy

    def test_loaded_experiment_packs_to_same_content_hash(self, tmp_path):
        # The journal scope is keyed by this hash: a reloaded experiment
        # must hash identically or resume would never skip anything.
        prepared = fresh_prepared()
        save_prepared(tmp_path, prepared, seed=0)
        loaded = load_prepared(tmp_path, DATASET, PROFILE, 0)
        arrays_a, _ = pack_prepared(prepared)
        arrays_b, _ = pack_prepared(loaded)
        assert content_hash(arrays_a) == content_hash(arrays_b)


def experiment_arrays(prepared):
    ds = prepared.dataset
    arrays = {"x_train": ds.x_train, "y_train": ds.y_train,
              "train_sessions": ds.train_sessions, "x_test": ds.x_test,
              "y_test": ds.y_test, "group_of": ds.group_of,
              "prototypes": ds.prototypes, "pretrain_x": prepared.pretrain_x,
              "pretrain_y": prepared.pretrain_y}
    return {name: arr for name, arr in arrays.items() if arr is not None}


class TestReadOnly:
    @pytest.mark.parametrize("source", ["fresh", "disk", "pickled"])
    def test_every_array_rejects_writes(self, tmp_path, source):
        # Grid points share one experiment, in the parent and in every
        # sweep worker (pickled under ``spawn``): none may write into it.
        prepared = fresh_prepared()
        if source == "disk":
            save_prepared(tmp_path, prepared, seed=0)
            prepared = load_prepared(tmp_path, DATASET, PROFILE, 0)
        elif source == "pickled":
            prepared = pickle.loads(pickle.dumps(prepared))
        arrays = experiment_arrays(prepared)
        assert len(arrays) >= 8
        for name, arr in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = arr.flat[0]


class TestInvalidation:
    def test_empty_cache_is_a_miss(self, tmp_path):
        assert load_prepared(tmp_path, DATASET, PROFILE, 0) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        save_prepared(tmp_path, fresh_prepared(), seed=0)
        assert load_prepared(tmp_path, DATASET, PROFILE, 1) is None
        assert load_prepared(tmp_path, "icub1", PROFILE, 0) is None

    def test_corrupt_arrays_are_a_miss(self, tmp_path):
        save_prepared(tmp_path, fresh_prepared(), seed=0)
        npz = prepared_cache_path(tmp_path, DATASET, PROFILE,
                                  0).with_suffix(".npz")
        npz.write_bytes(npz.read_bytes()[:100])
        assert load_prepared(tmp_path, DATASET, PROFILE, 0) is None

    def test_prepare_experiment_recovers_from_corrupt_cache(self, tmp_path):
        prepared = prepare_experiment(DATASET, PROFILE, seed=0,
                                      use_cache=False, cache_dir=tmp_path)
        npz = prepared_cache_path(tmp_path, DATASET, PROFILE,
                                  0).with_suffix(".npz")
        npz.write_bytes(b"garbage")
        rebuilt = prepare_experiment(DATASET, PROFILE, seed=0,
                                     use_cache=False, cache_dir=tmp_path)
        state, restate = prepared.model.state_dict(), rebuilt.model.state_dict()
        for name in state:
            np.testing.assert_array_equal(state[name], restate[name])
        # ... and the rebuild rewrote a valid entry.
        assert load_prepared(tmp_path, DATASET, PROFILE, 0) is not None


class TestPrepareExperimentIntegration:
    def test_disk_hit_skips_pretraining(self, tmp_path, monkeypatch):
        prepare_experiment(DATASET, PROFILE, seed=0, use_cache=False,
                           cache_dir=tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("cache hit should not re-pretrain")

        monkeypatch.setattr("repro.experiments.common.train_model", boom)
        loaded = prepare_experiment(DATASET, PROFILE, seed=0, use_cache=False,
                                    cache_dir=tmp_path)
        assert loaded.dataset_name == DATASET
