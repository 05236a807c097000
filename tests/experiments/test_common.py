"""Integration tests for the experiment machinery (repro.experiments.common).

Everything runs at the ``micro`` profile so each test completes in well
under a second of condensation work.
"""

import numpy as np
import pytest

from repro.experiments.common import (METHOD_NAMES, prepare_experiment,
                                      run_method)


@pytest.fixture(scope="module")
def prepared():
    return prepare_experiment("core50", "micro", seed=0)


class TestPrepare:
    def test_model_is_pretrained(self, prepared):
        # Better than chance on the 4-class micro dataset.
        assert prepared.pretrain_accuracy > 0.3

    def test_cache_returns_same_object(self, prepared):
        again = prepare_experiment("core50", "micro", seed=0)
        assert again is prepared

    def test_use_cache_false_rebuilds(self, prepared):
        fresh = prepare_experiment("core50", "micro", seed=0, use_cache=False)
        assert fresh is not prepared
        np.testing.assert_allclose(fresh.pretrain_accuracy,
                                   prepared.pretrain_accuracy)

    def test_fresh_model_is_independent_copy(self, prepared):
        a = prepared.fresh_model()
        b = prepared.fresh_model()
        assert a is not b
        a.classifier.weight.data[:] = 0.0
        assert not np.allclose(b.classifier.weight.data, 0.0)

    def test_learner_config_uses_profile(self, prepared):
        config = prepared.learner_config()
        assert config.train_epochs == prepared.profile.train_epochs


class TestRunMethod:
    def test_unknown_method_raises(self, prepared):
        with pytest.raises(KeyError, match="unknown method"):
            run_method(prepared, "magic", 1)

    def test_unknown_condenser_raises(self, prepared):
        with pytest.raises(KeyError, match="unknown condenser"):
            run_method(prepared, "deco", 1, condenser_name="mtt")

    def test_invalid_ipc_raises(self, prepared):
        with pytest.raises(ValueError, match="ipc"):
            run_method(prepared, "deco", 0)

    def test_deco_run_reports_condensation_cost(self, prepared):
        result = run_method(prepared, "deco", 1, seed=0)
        assert result.method == "deco[deco]"
        assert result.condense_seconds > 0
        assert result.condense_passes > 0
        assert 0.0 <= result.final_accuracy <= 1.0

    @pytest.mark.parametrize("method", ["random", "fifo", "selective_bp",
                                        "k_center", "gss_greedy"])
    def test_baselines_run(self, prepared, method):
        result = run_method(prepared, method, 2, seed=0)
        assert result.method == method
        assert result.condense_seconds == 0.0
        assert 0.0 <= result.final_accuracy <= 1.0

    def test_upper_bound_runs(self, prepared):
        result = run_method(prepared, "upper_bound", 1, seed=0)
        assert 0.0 <= result.final_accuracy <= 1.0

    def test_swappable_condensers(self, prepared):
        for condenser in ("dm", "dc"):
            result = run_method(
                prepared, "deco", 1, seed=0, condenser_name=condenser,
                condenser_kwargs={"iterations": 1} if condenser == "dm"
                else {"outer_loops": 1, "inner_epochs": 1, "net_steps": 1})
            assert result.method == f"deco[{condenser}]"

    def test_eval_every_builds_learning_curve(self, prepared):
        result = run_method(prepared, "fifo", 2, seed=0, eval_every=2)
        assert len(result.history.accuracy) >= 2

    def test_deterministic_given_seed(self, prepared):
        a = run_method(prepared, "deco", 1, seed=3)
        b = run_method(prepared, "deco", 1, seed=3)
        assert a.final_accuracy == b.final_accuracy

    def test_noise_rate_requires_deco(self, prepared):
        with pytest.raises(ValueError, match="noise_rate"):
            run_method(prepared, "fifo", 1, noise_rate=0.2)

    def test_method_names_constant_is_complete(self):
        assert "deco" in METHOD_NAMES
        assert "upper_bound" in METHOD_NAMES
        assert "herding" in METHOD_NAMES
        assert len(METHOD_NAMES) == 8
