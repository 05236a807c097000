"""Fig. 4a benchmark: majority-voting threshold sweep on CORe50-like.

Paper's shapes: raising ``m`` monotonically shrinks the retained data while
raising pseudo-label accuracy; model accuracy peaks at a moderate
threshold (the paper finds m = 0.4).
"""

from repro.experiments.fig4 import format_fig4a, run_fig4a
from repro.utils.metrics import mean_and_std

from .conftest import run_once

THRESHOLDS = (0.0, 0.2, 0.4, 0.6, 0.8)


def test_fig4a_threshold_tradeoff(benchmark, profile, save_report):
    result = run_once(
        benchmark,
        lambda: run_fig4a(dataset="core50", ipc=10, thresholds=THRESHOLDS,
                          profile=profile, seeds=(0,)))
    save_report("fig4a_threshold", format_fig4a(result))

    retained = [mean_and_std(p.retained_fraction)[0] for p in result.points]
    label_acc = [mean_and_std(p.pseudo_label_accuracy)[0]
                 for p, kept in zip(result.points, retained) if kept > 0]

    # Retention decreases monotonically with m.
    assert all(a >= b - 1e-6 for a, b in zip(retained, retained[1:]))
    # Retained-label accuracy trends upward while data remains.
    assert label_acc[-1] >= label_acc[0] - 1e-6
    # Model accuracy peaks at an interior threshold, not at the extremes
    # (quantity/quality trade-off).
    best = result.best_threshold
    assert 0.0 < best < 0.8, f"best threshold {best} is at an extreme"
