"""Unit tests for the numerical-health sentinels (repro.obs.health)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.obs.health import (HEALTH_POLICIES, HealthError, HealthMonitor,
                              get_monitor, scoped_policy)


@pytest.fixture(autouse=True)
def _clean_state():
    obs.shutdown()
    obs.reset()
    get_monitor().reset()
    yield
    obs.shutdown()
    obs.reset()
    get_monitor().reset()


class TestCheck:
    def test_finite_values_pass_silently(self):
        m = HealthMonitor("record")
        assert m.check("op", np.ones(100))
        assert m.check("op", 0.5)
        assert m.check("op", [np.zeros(4), np.full(4, 1e30)])
        assert not m.incidents

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_nonfinite_scalar_is_an_incident(self, bad):
        m = HealthMonitor("record")
        assert m.check("op", bad)  # record: observe, continue
        assert len(m.incidents) == 1
        assert m.incidents[0].kind == "nonfinite"

    def test_nan_array_attributed_with_context(self):
        m = HealthMonitor("record")
        arr = np.ones(64)
        arr[17] = np.nan
        with m.segment_scope(5):
            m.check("matcher.g_real", arr, iteration=3)
        inc = m.incidents[0]
        assert inc.op == "matcher.g_real"
        assert inc.segment == 5
        assert inc.iteration == 3
        assert inc.stats["nan"] >= 1

    def test_inf_array_counts_infs(self):
        m = HealthMonitor("record")
        arr = np.ones(8)
        arr[0] = np.inf
        m.check("op", arr)
        assert m.incidents[0].stats["inf"] >= 1

    def test_huge_finite_values_are_not_incidents(self):
        # The probe sum can overflow to inf on legal float32 data; the
        # detailed scan must clear it.
        m = HealthMonitor("record")
        assert m.check("op", np.full(16, 3e38, dtype=np.float32))
        assert not m.incidents

    def test_large_arrays_are_subsampled(self):
        m = HealthMonitor("record", max_sample=128)
        assert m.check("op", np.ones(1 << 18))
        assert m.stats()["checks"] == 1

    def test_off_policy_is_a_noop(self):
        m = HealthMonitor("off")
        assert m.check("op", float("nan"))
        assert not m.incidents
        assert m.stats()["checks"] == 0

    def test_skip_step_returns_false(self):
        m = HealthMonitor("skip-step")
        assert not m.check("op", np.array([np.nan]))
        assert m.stats()["skip_signals"] == 1

    def test_raise_policy_throws_health_error(self):
        m = HealthMonitor("raise")
        with m.segment_scope(2):
            with pytest.raises(HealthError) as exc_info:
                m.check("matcher.g_syn", np.array([np.inf]), iteration=1)
        err = exc_info.value
        assert err.op == "matcher.g_syn"
        assert err.segment == 2
        assert err.iteration == 1

    def test_incident_list_is_bounded(self):
        m = HealthMonitor("record", max_incidents=4)
        for _ in range(10):
            m.check("op", float("nan"))
        assert len(m.incidents) == 4
        assert m.stats()["incidents"] == 10
        assert m.stats()["dropped_incidents"] == 6


class TestNoteUpdate:
    def test_norms_recorded_and_finite_updates_pass(self):
        m = HealthMonitor("record")
        w = [np.ones((4, 4)), np.ones(4)]
        g = [np.full((4, 4), 0.1), np.full(4, 0.2)]
        assert m.note_update("optim.sgd", w, g, g, 0.1)
        assert not m.incidents
        assert m.stats()["max_grad_norm"] > 0

    def test_nan_gradient_norm_is_an_incident(self):
        m = HealthMonitor("record")
        w = [np.ones(4)]
        g = [np.array([0.1, np.nan, 0.1, 0.1])]
        m.note_update("optim.sgd", w, g, g, 0.1)
        assert m.incidents[0].op == "optim.sgd"

    def test_update_due_sampling(self):
        m = HealthMonitor("record", update_every=4)
        due = [m.update_due(s) for s in range(1, 9)]
        assert due == [False, False, False, True,
                       False, False, False, True]
        assert not HealthMonitor("off").update_due(4)


class TestScopedPolicy:
    def test_scoped_policy_restores(self):
        monitor = get_monitor()
        before = monitor.policy
        with scoped_policy("raise"):
            assert monitor.policy == "raise"
        assert monitor.policy == before

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            HealthMonitor("explode")
        assert "record" in HEALTH_POLICIES


class TestCounters:
    def test_health_counters_flow_through_telemetry(self):
        obs.enable()
        with scoped_policy("record"):
            get_monitor().check("op", np.array([np.nan]))
        counters = obs.snapshot()["counters"]
        assert counters.get("health.checks", 0) >= 1
        assert counters.get("health.incidents", 0) >= 1

    def test_runtime_gauges_include_health(self):
        obs.enable()
        with scoped_policy("record"):
            get_monitor().check("op", np.ones(3))
        values = obs.collect_runtime_counters()
        assert any(name.startswith("health.") for name in values)


class TestMatcherIntegration:
    def _fixture(self):
        from repro.buffer.buffer import SyntheticBuffer
        from repro.nn.convnet import ConvNet

        rng = np.random.default_rng(0)
        buffer = SyntheticBuffer(2, 1, (1, 8, 8))
        buffer.init_random(np.random.default_rng(1), scale=0.5)
        x = rng.standard_normal((8, 1, 8, 8)).astype(np.float32)
        y = np.repeat(np.arange(2), 4).astype(np.int64)

        def poisoned(factory_rng):
            net = ConvNet(1, 2, 8, width=4, depth=2,
                          rng=np.random.default_rng(2))
            net.parameters()[0].data.flat[0] = np.nan
            return net

        return buffer, x, y, poisoned

    def test_skip_step_keeps_buffer_finite(self):
        from repro.condensation.one_step import OneStepMatcher

        buffer, x, y, poisoned = self._fixture()
        with scoped_policy("skip-step"):
            stats = OneStepMatcher(iterations=2, alpha=0.0).condense(
                buffer, [0, 1], x, y, None, model_factory=poisoned,
                rng=np.random.default_rng(3))
        assert np.isfinite(buffer.images).all()
        assert stats.extra["health_skipped"] == 2

    def test_raise_policy_propagates_from_condense(self):
        from repro.condensation.one_step import OneStepMatcher

        buffer, x, y, poisoned = self._fixture()
        with scoped_policy("raise"), get_monitor().segment_scope(7):
            with pytest.raises(HealthError) as caught:
                OneStepMatcher(iterations=1, alpha=0.0).condense(
                    buffer, [0, 1], x, y, None, model_factory=poisoned,
                    rng=np.random.default_rng(3))
        assert caught.value.op and caught.value.segment == 7
        assert caught.value.iteration is not None

    def test_record_policy_attributes_incidents(self):
        from repro.condensation.one_step import OneStepMatcher

        buffer, x, y, poisoned = self._fixture()
        monitor = get_monitor()
        with scoped_policy("record"), monitor.segment_scope(7):
            OneStepMatcher(iterations=2, alpha=0.0).condense(
                buffer, [0, 1], x, y, None, model_factory=poisoned,
                rng=np.random.default_rng(3))
        first = monitor.incidents[0]
        assert first.op.startswith(("matcher.", "fd.", "optim."))
        assert (first.kind, first.segment) == ("nonfinite", 7)
        assert first.iteration is not None

    def test_record_policy_does_not_change_results(self):
        from repro.condensation.one_step import OneStepMatcher
        from repro.nn.convnet import ConvNet

        def healthy(factory_rng):
            return ConvNet(1, 2, 8, width=4, depth=2,
                           rng=np.random.default_rng(2))

        results = {}
        for policy in ("off", "record"):
            buffer, x, y, _ = self._fixture()
            with scoped_policy(policy):
                OneStepMatcher(iterations=2, alpha=0.0).condense(
                    buffer, [0, 1], x, y, None, model_factory=healthy,
                    rng=np.random.default_rng(3))
            results[policy] = buffer.images.copy()
        np.testing.assert_array_equal(results["off"], results["record"])
        # A clean pass is silent, and not because nothing was checked.
        assert not get_monitor().incidents
        assert get_monitor().stats()["checks"] > 0


class TestHealthyStream:
    def test_deco_stream_completes_under_raise(self):
        # An ordinary stream whose matching losses jump between freshly
        # randomised models: no value is non-finite, so even the strictest
        # policy must let it run to the end, untouched.
        from repro.experiments.common import prepare_experiment, run_method

        prepared = prepare_experiment("core50", "smoke", seed=0)
        with scoped_policy("raise"):
            result = run_method(prepared, "deco", 5, seed=0)
        assert result.history.samples_seen == [prepared.dataset.num_train]
        assert not get_monitor().incidents
        assert get_monitor().stats()["checks"] > 0
