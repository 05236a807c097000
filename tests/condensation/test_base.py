"""Unit tests for the condensation interfaces and the timing wrapper."""

import numpy as np
import pytest

from repro.buffer.buffer import SyntheticBuffer
from repro.condensation.base import CondensationStats
from repro.condensation.one_step import OneStepMatcher
from repro.experiments.common import TimedCondenser
from repro.nn import init
from repro.nn.layers import Flatten, Linear, ReLU, Sequential


class TestCondensationStats:
    def test_defaults(self):
        stats = CondensationStats()
        assert stats.iterations == 0
        assert stats.matching_loss == 0.0
        assert stats.forward_backward_passes == 0
        assert stats.extra == {}

    def test_extra_dict_is_per_instance(self):
        a, b = CondensationStats(), CondensationStats()
        a.extra["x"] = 1
        assert b.extra == {}


class TestTimedCondenser:
    def make(self):
        return TimedCondenser(OneStepMatcher(iterations=2, alpha=0.0))

    def setup_args(self, seed=0):
        rng = np.random.default_rng(seed)
        buf = SyntheticBuffer(2, 1, (4,))
        buf.init_random(rng)
        x = rng.standard_normal((6, 4)).astype(np.float32)
        y = np.array([0, 0, 0, 1, 1, 1])
        scratch = Sequential(Flatten(), Linear(4, 5, rng=rng), ReLU(),
                             Linear(5, 2, rng=rng))

        def factory(r):
            init.reinitialize(scratch, r)
            return scratch

        return buf, x, y, factory, rng

    def test_accumulates_time_and_passes(self):
        timed = self.make()
        buf, x, y, factory, rng = self.setup_args()
        timed.condense(buf, [0, 1], x, y, None, model_factory=factory, rng=rng)
        first_time = timed.total_seconds
        first_passes = timed.total_passes
        assert first_time > 0
        assert first_passes == 2 * 5
        timed.condense(buf, [0, 1], x, y, None, model_factory=factory, rng=rng)
        assert timed.total_seconds > first_time
        assert timed.total_passes == 2 * first_passes

    def test_delegates_name_and_result(self):
        timed = self.make()
        assert timed.name == "deco"
        buf, x, y, factory, rng = self.setup_args()
        stats = timed.condense(buf, [0], x[y == 0], y[y == 0], None,
                               model_factory=factory, rng=rng)
        assert isinstance(stats, CondensationStats)
        assert stats.iterations == 2

    def test_noop_calls_count_zero_passes(self):
        timed = self.make()
        buf, x, y, factory, rng = self.setup_args()
        timed.condense(buf, [], x, y, None, model_factory=factory, rng=rng)
        assert timed.total_passes == 0
        assert timed.total_iterations == 0
