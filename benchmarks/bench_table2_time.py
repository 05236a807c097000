"""Table II benchmark: execution time and accuracy of condensation methods.

Swaps DC / DSA / DM / DECO into the same CORe50-like pipeline.  Paper's
shapes: DECO is many times faster than the bilevel methods (DC/DSA, ~10x
in the paper) at comparable accuracy; DM is the fastest but loses accuracy
to DECO, markedly so at larger IpC.
"""

from repro.experiments.table2 import format_table2, run_table2
from repro.utils.metrics import mean_and_std

from .conftest import run_once

IPCS = (1, 5, 10, 50)


def test_table2_condensation_time(benchmark, profile, save_report):
    result = run_once(
        benchmark,
        lambda: run_table2(dataset="core50", ipcs=IPCS,
                           condensers=("dc", "dsa", "dm", "deco"),
                           profile=profile, seeds=(0,)))
    save_report("table2_time", format_table2(result))

    def seconds(condenser, ipc):
        return mean_and_std(result.entry(condenser, ipc).seconds)[0]

    def accuracy(condenser, ipc):
        return mean_and_std(result.entry(condenser, ipc).accuracy)[0]

    for ipc in IPCS:
        # Bilevel methods are slower than one-step DECO at every IpC ...
        assert result.speedup("dc", "deco", ipc) > 1.5, ipc
        assert result.speedup("dsa", "deco", ipc) > 1.5, ipc
        # ... and DM is cheaper than DECO per segment.
        assert seconds("dm", ipc) <= seconds("deco", ipc) * 1.5, ipc
    # Averaged over the sweep the bilevel gap is large (paper: ~10x on GPU;
    # >2x is required here, where DECO's FD passes are relatively pricier).
    for slow in ("dc", "dsa"):
        mean_ratio = sum(result.speedup(slow, "deco", i)
                         for i in IPCS) / len(IPCS)
        assert mean_ratio > 2.0, slow

    # Accuracy: DECO at least matches DM on average (the paper's trade-off:
    # slightly slower than DM, markedly more accurate).  Single-seed smoke
    # accuracies are noisy, so allow a small tolerance; the clearest paper
    # gap is at the largest IpC.
    deco_mean = sum(accuracy("deco", i) for i in IPCS) / len(IPCS)
    dm_mean = sum(accuracy("dm", i) for i in IPCS) / len(IPCS)
    largest = max(IPCS)
    assert (deco_mean >= dm_mean - 0.05
            or accuracy("deco", largest) >= accuracy("dm", largest))
