"""Unit tests for synthetic dataset generation (repro.data.datasets)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.datasets import DatasetSpec, gaussian_blur, make_dataset

SPEC = DatasetSpec(name="toy", num_classes=4, image_size=8, channels=3,
                   train_per_class=10, test_per_class=4, num_groups=2,
                   num_sessions=2, jitter=1)


class TestSpecValidation:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="classes"):
            DatasetSpec(name="x", num_classes=1, image_size=8)

    def test_rejects_too_many_groups(self):
        with pytest.raises(ValueError, match="num_groups"):
            DatasetSpec(name="x", num_classes=3, image_size=8, num_groups=5)

    def test_rejects_tiny_images(self):
        with pytest.raises(ValueError, match="image_size"):
            DatasetSpec(name="x", num_classes=2, image_size=2, num_groups=1)

    def test_rejects_zero_sessions(self):
        with pytest.raises(ValueError, match="sessions"):
            DatasetSpec(name="x", num_classes=2, image_size=8, num_groups=1,
                        num_sessions=0)


class TestGeneration:
    def test_shapes(self):
        ds = make_dataset(SPEC, seed=0)
        assert ds.x_train.shape == (40, 3, 8, 8)
        assert ds.y_train.shape == (40,)
        assert ds.x_test.shape == (16, 3, 8, 8)
        assert ds.train_sessions.shape == (40,)
        assert ds.image_shape() == (3, 8, 8)

    def test_dtype_is_float32(self):
        ds = make_dataset(SPEC, seed=0)
        assert ds.x_train.dtype == np.float32
        assert ds.y_train.dtype == np.int64

    def test_deterministic_given_seed(self):
        a = make_dataset(SPEC, seed=5)
        b = make_dataset(SPEC, seed=5)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.x_test, b.x_test)

    def test_different_seeds_differ(self):
        a = make_dataset(SPEC, seed=1)
        b = make_dataset(SPEC, seed=2)
        assert not np.allclose(a.x_train, b.x_train)

    def test_class_balance(self):
        ds = make_dataset(SPEC, seed=0)
        counts = np.bincount(ds.y_train)
        np.testing.assert_array_equal(counts, [10, 10, 10, 10])

    def test_train_standardized(self):
        ds = make_dataset(SPEC, seed=0)
        assert abs(ds.x_train.mean()) < 0.05
        assert ds.x_train.std() == pytest.approx(1.0, abs=0.05)

    def test_sessions_in_range(self):
        ds = make_dataset(SPEC, seed=0)
        assert ds.train_sessions.min() >= 0
        assert ds.train_sessions.max() < SPEC.num_sessions

    def test_properties_delegate_to_spec(self):
        ds = make_dataset(SPEC, seed=0)
        assert ds.name == "toy"
        assert ds.num_classes == 4
        assert ds.image_size == 8
        assert ds.channels == 3
        assert ds.num_train == 40


class TestClassStructure:
    def test_group_assignment_round_robin(self):
        ds = make_dataset(SPEC, seed=0)
        np.testing.assert_array_equal(ds.group_of, [0, 1, 0, 1])

    def test_confusable_classes(self):
        ds = make_dataset(SPEC, seed=0)
        np.testing.assert_array_equal(ds.confusable_classes(0), [2])
        np.testing.assert_array_equal(ds.confusable_classes(1), [3])

    def test_same_group_classes_are_more_similar(self):
        # Prototype correlation should be higher within an anchor group.
        spec = DatasetSpec(name="sim", num_classes=6, image_size=16,
                           train_per_class=4, test_per_class=2, num_groups=3,
                           class_separation=0.4, noise_std=0.5)
        ds = make_dataset(spec, seed=3)
        protos = ds.prototypes.reshape(6, -1)

        def corr(i, j):
            a, b = protos[i], protos[j]
            return float(np.corrcoef(a, b)[0, 1])

        same = [corr(i, j) for i in range(6) for j in range(6)
                if i < j and ds.group_of[i] == ds.group_of[j]]
        diff = [corr(i, j) for i in range(6) for j in range(6)
                if i < j and ds.group_of[i] != ds.group_of[j]]
        assert np.mean(same) > np.mean(diff) + 0.2

    def test_samples_cluster_around_prototypes(self):
        # Disable pose variation so class means align with the prototypes.
        spec = DatasetSpec(name="still", num_classes=4, image_size=8,
                           train_per_class=20, test_per_class=4, num_groups=2,
                           num_sessions=1, jitter=0, flip=False,
                           noise_std=0.5)
        ds = make_dataset(spec, seed=0)
        # Mean image of a class should correlate with its prototype far more
        # than with other classes' prototypes.
        protos = ds.prototypes.reshape(spec.num_classes, -1)
        for c in range(spec.num_classes):
            mean_img = ds.x_train[ds.y_train == c].mean(axis=0).ravel()
            corrs = [np.corrcoef(mean_img, protos[k])[0, 1]
                     for k in range(spec.num_classes)]
            assert np.argmax(corrs) == c


class TestPretrainSubset:
    def test_fraction_bounds(self):
        ds = make_dataset(SPEC, seed=0)
        with pytest.raises(ValueError, match="fraction"):
            ds.pretrain_subset(0.0)
        with pytest.raises(ValueError, match="fraction"):
            ds.pretrain_subset(1.5)

    def test_at_least_one_per_class(self):
        ds = make_dataset(SPEC, seed=0)
        x, y = ds.pretrain_subset(0.01, rng=0)
        counts = np.bincount(y, minlength=4)
        assert (counts >= 1).all()

    def test_class_balanced(self):
        ds = make_dataset(SPEC, seed=0)
        x, y = ds.pretrain_subset(0.5, rng=0)
        counts = np.bincount(y, minlength=4)
        assert len(set(counts.tolist())) == 1

    def test_full_fraction_returns_everything(self):
        ds = make_dataset(SPEC, seed=0)
        x, y = ds.pretrain_subset(1.0, rng=0)
        assert len(x) == ds.num_train

    def test_subset_rows_come_from_train(self):
        ds = make_dataset(SPEC, seed=0)
        x, y = ds.pretrain_subset(0.2, rng=0)
        train_rows = {arr.tobytes() for arr in ds.x_train}
        assert all(row.tobytes() in train_rows for row in x)


class TestGaussianBlur:
    @pytest.mark.parametrize("size", [8, 13, 32])
    @pytest.mark.parametrize("sigma", [0.5, 1.3, 2.0, 4.7, 9.0])
    def test_matches_scipy_bit_for_bit(self, size, sigma):
        ndimage = pytest.importorskip("scipy.ndimage")
        fields = np.random.default_rng(size).standard_normal((3, size, size))
        expected = np.stack([ndimage.gaussian_filter(f, sigma) for f in fields])
        np.testing.assert_array_equal(gaussian_blur(fields, sigma), expected)

    def test_generation_leaves_scipy_unloaded(self):
        script = ("import sys, repro\n"
                  "from repro.experiments import prepare_experiment\n"
                  "prepare_experiment('core50', 'micro')\n"
                  "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
