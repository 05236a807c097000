"""Ablation benchmark: isolate DECO's design choices (DESIGN.md §4).

Runs DECO variants on the CORe50-like stream that each disable or perturb
exactly one design decision from §III: model re-randomization per matching
step, confidence weighting (Eq. 4), feature discrimination (Eq. 8), the
finite-difference step size (Eq. 7), and the distance metric.
"""

from repro.experiments.ablations import (DEFAULT_VARIANTS, format_ablations,
                                         run_ablations)

from .conftest import run_once


def test_deco_ablations(benchmark, profile, save_report):
    result = run_once(
        benchmark,
        lambda: run_ablations(dataset="core50", ipc=10,
                              variants=DEFAULT_VARIANTS, profile=profile,
                              seeds=(0,)))
    save_report("ablations", format_ablations(result))

    full = result.full_accuracy
    # Every variant ran and produced a sane accuracy.
    for name, accs in result.accuracy.items():
        assert all(0.0 <= acc <= 1.0 for acc in accs), name
    # The finite-difference scheme is robust to the epsilon scale
    # (footnote 2's claim that the prescribed step is "sufficiently
    # accurate" implies nearby scales behave similarly).
    assert abs(result.mean("epsilon x10") - full) < 0.15
    assert abs(result.mean("epsilon /10") - full) < 0.15
