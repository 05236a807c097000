"""Noise-robustness benchmark (extension of §III-D, beyond the paper).

Injects controlled, structured pseudo-label noise (flips to confusable
classes — the Fig. 2 error mode) and compares DECO with and without the
feature-discrimination loss.  Expected shape: the discrimination loss's
value is non-negative on average and the *noisy* regimes do not favor
disabling it.
"""

from repro.experiments.noise import (format_noise_robustness,
                                     run_noise_robustness)
from repro.utils.metrics import mean_and_std

from .conftest import run_once

NOISE_RATES = (0.0, 0.2, 0.4)


def test_noise_robustness(benchmark, profile, save_report):
    result = run_once(
        benchmark,
        lambda: run_noise_robustness(dataset="core50", ipc=10,
                                     noise_rates=NOISE_RATES,
                                     alphas=(0.0, 0.1), profile=profile,
                                     seeds=(0,)))
    save_report("noise_robustness", format_noise_robustness(result))

    mean = {key: mean_and_std(accs)[0] for key, accs in result.accuracy.items()}
    for noise in NOISE_RATES:
        for alpha in (0.0, 0.1):
            assert 0.0 <= mean[(noise, alpha)] <= 1.0
    # More noise should not help: the cleanest regime is at least as good
    # as the noisiest, for the full method.
    assert mean[(0.0, 0.1)] >= mean[(NOISE_RATES[-1], 0.1)] - 0.05
