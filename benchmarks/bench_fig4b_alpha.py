"""Fig. 4b benchmark: feature-discrimination weight sweep on CIFAR-100-like.

Paper's shapes: accuracy improves as alpha grows from 0 toward ~0.1 and
falls off for large alpha (0.5-1.0), identifying a moderate alpha as
optimal.
"""

from repro.experiments.fig4 import format_fig4b, run_fig4b
from repro.utils.metrics import mean_and_std

from .conftest import run_once

ALPHAS = (0.0, 0.001, 0.01, 0.1, 0.5, 1.0)


def test_fig4b_alpha_sweep(benchmark, profile, save_report):
    result = run_once(
        benchmark,
        lambda: run_fig4b(dataset="cifar100", alphas=ALPHAS, ipcs=(5, 10),
                          profile=profile, seeds=(0,)))
    save_report("fig4b_alpha", format_fig4b(result))

    for ipc in result.ipcs:
        accs = {a: mean_and_std(result.accuracy[(a, ipc)])[0]
                for a in ALPHAS}
        # Moderate alpha should not lose to disabling the loss entirely,
        # and a huge alpha should not be the unique winner.
        assert max(accs[0.01], accs[0.1]) >= accs[0.0] - 0.02, ipc
        assert result.best_alpha(ipc) != 1.0 or accs[1.0] <= accs[0.1] + 0.02
