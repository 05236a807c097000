"""The fixed pairwise combine of partial results."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import tree_reduce


def test_combine_partials_single_partial_is_identity():
    part = np.arange(4, dtype=np.float32)
    assert tree_reduce.combine_partials([part]) is part


@pytest.mark.parametrize("k", [2, 3, 4, 5, 7, 8])
def test_combine_partials_matches_explicit_tree(k):
    rng = np.random.default_rng(k)
    parts = [rng.standard_normal(6).astype(np.float32) for _ in range(k)]
    expect = [p.copy() for p in parts]
    # Reference: the same step-doubling schedule, written out naively.
    step = 1
    while step < k:
        for i in range(0, k - step, 2 * step):
            expect[i] = expect[i] + expect[i + step]
        step *= 2
    got = tree_reduce.combine_partials([p.copy() for p in parts])
    np.testing.assert_array_equal(got, expect[0])


def test_combine_order_depends_only_on_shard_count():
    # Two calls with identical partials must combine identically —
    # the tree structure is a pure function of k.
    rng = np.random.default_rng(0)
    parts = [rng.standard_normal(8).astype(np.float32) for _ in range(5)]
    a = tree_reduce.combine_partials([p.copy() for p in parts])
    b = tree_reduce.combine_partials([p.copy() for p in parts])
    assert a.tobytes() == b.tobytes()
