"""Unit tests for shared utilities (repro.utils)."""

import warnings

import numpy as np
import pytest

from repro.utils.batching import (MICRO_BATCH_BYTES, iterate_minibatches,
                                  micro_batches)
from repro.utils.metrics import (confusion_matrix, mean_and_std,
                                 relative_improvement)
from repro.utils.rng import spawn_rngs, to_rng


class TestRng:
    def test_to_rng_from_seed(self):
        a = to_rng(5)
        b = to_rng(5)
        assert a.integers(100) == b.integers(100)

    def test_to_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert to_rng(rng) is rng

    def test_to_rng_none(self):
        assert isinstance(to_rng(None), np.random.Generator)

    def test_spawn_rngs_independent_and_deterministic(self):
        first = [r.integers(1000) for r in spawn_rngs(7, 3)]
        second = [r.integers(1000) for r in spawn_rngs(7, 3)]
        assert first == second
        assert len(set(first)) > 1


class TestMetrics:
    def test_confusion_matrix_counts(self):
        m = confusion_matrix(np.array([0, 0, 1, 2]), np.array([0, 1, 1, 0]), 3)
        expected = np.array([[1, 1, 0], [0, 1, 0], [1, 0, 0]])
        np.testing.assert_array_equal(m, expected)

    def test_confusion_matrix_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0]), np.array([0, 1]), 2)

    def test_mean_and_std(self):
        mean, std = mean_and_std([1.0, 3.0])
        assert mean == 2.0
        assert std == 1.0

    def test_mean_and_std_empty_returns_nan_with_warning(self):
        with pytest.warns(RuntimeWarning, match="empty collection"):
            mean, std = mean_and_std([])
        assert np.isnan(mean) and np.isnan(std)

    def test_mean_and_std_empty_no_bare_numpy_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mean_and_std([])
        messages = [str(w.message) for w in caught]
        assert not any("empty slice" in m or "invalid value" in m
                       for m in messages), messages

    def test_relative_improvement(self):
        assert relative_improvement(1.5, 1.0) == pytest.approx(50.0)
        assert relative_improvement(0.5, 1.0) == pytest.approx(-50.0)

    def test_relative_improvement_zero_baseline(self):
        assert relative_improvement(1.0, 0.0) == np.inf
        assert relative_improvement(0.0, 0.0) == 0.0


class TestBatching:
    def test_covers_all_indices_in_order(self):
        batches = list(iterate_minibatches(10, 4))
        flat = np.concatenate(batches)
        np.testing.assert_array_equal(flat, np.arange(10))
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_shuffled_is_permutation(self):
        batches = list(iterate_minibatches(10, 3, rng=np.random.default_rng(0)))
        flat = sorted(np.concatenate(batches).tolist())
        assert flat == list(range(10))

    def test_drop_last(self):
        batches = list(iterate_minibatches(10, 4, drop_last=True))
        assert [len(b) for b in batches] == [4, 4]

    def test_zero_items_yields_nothing(self):
        assert list(iterate_minibatches(0, 4)) == []

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(iterate_minibatches(10, 0))

    @pytest.mark.parametrize("n, hw, sizes", [
        (100, 16, [20] * 5), (81, 16, [20, 20, 20, 21]), (100, 32, [5] * 20),
        (3, 16, [3]), (0, 16, [])])
    def test_micro_batches_split_evenly_under_the_byte_cap(self, n, hw, sizes):
        x = np.zeros((n, 3, hw, hw), dtype=np.float32)
        parts = micro_batches(x)
        assert [p.stop - p.start for p in parts] == sizes
        assert all(x[p].nbytes <= MICRO_BATCH_BYTES for p in parts)
        assert [p.start for p in parts[1:]] == [p.stop for p in parts[:-1]]
        capped = micro_batches(x, max_rows=2)
        assert all(p.stop - p.start <= 2 for p in capped)
        assert sum(p.stop - p.start for p in capped) == n

    @pytest.mark.parametrize("n, hw, sizes", [
        (100, 16, [10] * 10), (20, 32, [2] * 10), (1, 64, [1])])
    def test_lanes_share_the_byte_cap(self, n, hw, sizes):
        x = np.zeros((n, 3, hw, hw), dtype=np.float32)
        parts = micro_batches(x, lanes=2)
        assert [p.stop - p.start for p in parts] == sizes
        assert all(2 * x[p].nbytes <= MICRO_BATCH_BYTES
                   for p in parts if p.stop - p.start > 1)
