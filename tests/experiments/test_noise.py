"""Unit tests for the label-noise robustness experiment: the noisy labeler
(repro.core.pseudo_label) and its runner (repro.experiments.noise)."""

import numpy as np
import pytest

from repro.core.pseudo_label import NoisyPseudoLabeler
from repro.experiments.noise import (format_noise_robustness,
                                     run_noise_robustness)
from tests.core.test_pseudo_label import images, per_sample_model

GROUPS = np.array([0, 1, 0, 1])  # classes 0/2 and 1/3 are confusable


class TestNoisyPseudoLabeler:
    def test_noise_rate_validation(self):
        with pytest.raises(ValueError, match="noise_rate"):
            NoisyPseudoLabeler(0.4, noise_rate=1.5, group_of=GROUPS)

    def test_zero_noise_is_identity(self):
        labels = [0] * 8 + [1] * 2
        model = per_sample_model(4, labels)
        clean = NoisyPseudoLabeler(0.4, noise_rate=0.0, group_of=GROUPS,
                                   rng=0).label_segment(model, images(10))
        np.testing.assert_array_equal(clean.labels, labels)

    def test_full_noise_flips_to_confusable_class(self):
        labels = [0] * 10
        model = per_sample_model(4, labels)
        noisy = NoisyPseudoLabeler(0.0, noise_rate=1.0, group_of=GROUPS,
                                   rng=0).label_segment(model, images(10))
        # Class 0's only confusable sibling is class 2.
        assert set(noisy.labels.tolist()) == {2}

    def test_flipped_labels_stay_kept(self):
        labels = [0] * 10
        model = per_sample_model(4, labels)
        noisy = NoisyPseudoLabeler(0.4, noise_rate=1.0, group_of=GROUPS,
                                   rng=0).label_segment(model, images(10))
        # The vote ran before the flip: class 0 is active and every sample
        # is kept, now carrying the wrong label 2 into condensation.
        assert noisy.active_classes == (0,)
        assert noisy.keep.all()
        assert set(noisy.labels.tolist()) == {2}

    @pytest.mark.parametrize("rate", [0.2, 0.4])
    def test_realised_rate_among_kept_labels_is_nominal(self, rate):
        # One temporally correlated segment: the voting filter keeps all
        # 1,200 rows of its one active class, so the flipped share of the
        # kept labels is the injected noise (binomial sd ~1.4 points).
        labels = [0] * 1200
        model = per_sample_model(4, labels)
        noisy = NoisyPseudoLabeler(0.4, noise_rate=rate, group_of=GROUPS,
                                   rng=0).label_segment(model, images(1200))
        kept = noisy.labels[noisy.keep]
        assert kept.size >= 1000
        assert (kept != 0).mean() == pytest.approx(rate, abs=0.05)

    def test_partial_noise_statistics(self):
        labels = [0] * 1000
        model = per_sample_model(4, labels)
        noisy = NoisyPseudoLabeler(0.0, noise_rate=0.3, group_of=GROUPS,
                                   rng=0).label_segment(model, images(1000))
        flipped = (noisy.labels != 0).mean()
        assert flipped == pytest.approx(0.3, abs=0.05)

    def test_deterministic_given_seed(self):
        labels = [0] * 50
        results = []
        for _ in range(2):
            model = per_sample_model(4, labels)
            noisy = NoisyPseudoLabeler(0.0, noise_rate=0.5, group_of=GROUPS,
                                       rng=7).label_segment(model, images(50))
            results.append(noisy.labels)
        np.testing.assert_array_equal(results[0], results[1])


class TestNoiseRobustnessRunner:
    def test_micro_sweep_runs_and_formats(self):
        result = run_noise_robustness(dataset="core50", ipc=1,
                                      noise_rates=(0.0, 0.5),
                                      alphas=(0.0, 0.1), profile="micro",
                                      seeds=(0,))
        assert set(result.accuracy) == {(0.0, 0.0), (0.0, 0.1),
                                        (0.5, 0.0), (0.5, 0.1)}
        assert isinstance(result.discrimination_gain(0.5), float)
        text = format_noise_robustness(result)
        assert "noise" in text
        assert "discrimination gain" in text
