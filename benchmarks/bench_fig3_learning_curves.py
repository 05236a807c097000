"""Fig. 3 benchmark: learning curves on CORe50-like and ImageNet-10-like.

Paper's shapes at IpC=10: DECO's curve dominates FIFO and Selective-BP,
reaches their final accuracy with a fraction of the inputs, and ends
several points above the best baseline.
"""

from repro.experiments.fig3 import (data_to_reach, format_fig3, run_fig3)

from .conftest import run_once


def test_fig3_learning_curves(benchmark, profile, save_report):
    result = run_once(
        benchmark,
        lambda: run_fig3(datasets=("core50", "imagenet10"),
                         methods=("fifo", "selective_bp", "deco"),
                         ipc=10, profile=profile, seeds=(0,), eval_every=5))
    save_report("fig3_learning_curves", format_fig3(result))

    for dataset in result.datasets:
        deco = result.curve(dataset, "deco")
        best_baseline_final = max(
            result.curve(dataset, m).final_accuracy
            for m in ("fifo", "selective_bp"))
        # DECO ends above the best baseline ...
        assert deco.final_accuracy > best_baseline_final, dataset
        # ... and reaches the baselines' final accuracy with less data.
        reach = data_to_reach(deco, best_baseline_final)
        assert reach is not None
        assert reach <= deco.samples_seen[-1], dataset
