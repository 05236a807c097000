"""Integration tests for the per-table/figure experiment runners.

All at the ``micro`` profile with the smallest meaningful configurations —
these check the plumbing and report formats, not the paper's shapes (the
benchmark harness does that at the ``smoke`` profile).
"""

import numpy as np
import pytest

from repro.experiments.ablations import format_ablations, run_ablations
from repro.experiments.fig2 import format_fig2, run_fig2
from repro.experiments.fig3 import (curve_smoothness, data_to_reach,
                                    format_fig3, run_fig3)
from repro.experiments.fig4 import (format_fig4a, format_fig4b, run_fig4a,
                                    run_fig4b)
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table2 import format_table2, run_table2


class TestTable1Runner:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1(datasets=("core50",), ipcs=(1, 2),
                          baselines=("random", "fifo"), profile="micro",
                          seeds=(0,))

    def test_all_cells_present(self, result):
        for ipc in (1, 2):
            for method in ("random", "fifo", "deco"):
                assert len(result.cell("core50", ipc, method)) == 1

    def test_upper_bound_recorded(self, result):
        (ub,) = result.upper_bounds["core50"]
        assert 0.0 <= ub <= 1.0

    def test_best_baseline_and_improvement(self, result):
        name, acc = result.best_baseline("core50", 1)
        assert name in ("random", "fifo")
        assert isinstance(result.improvement("core50", 1), float)

    def test_format_contains_paper_columns(self, result):
        text = format_table1(result)
        assert "DECO (Ours)" in text
        assert "Improvement" in text
        assert "Upper Bound" in text
        assert "core50" in text


class TestTable2Runner:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table2(ipcs=(1,), condensers=("dm", "deco"),
                          profile="micro")

    def test_entries_have_time_and_accuracy(self, result):
        for condenser in ("dm", "deco"):
            entry = result.entry(condenser, 1)
            (seconds,), (passes,) = entry.seconds, entry.passes
            assert seconds > 0
            assert passes > 0

    def test_speedup_computation(self, result):
        ratio = result.speedup("deco", "dm", 1)
        assert ratio > 0

    def test_format(self, result):
        text = format_table2(result)
        assert "DECO" in text and "DM" in text
        assert "Time" in text


class TestFig2Runner:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig2(profile="micro", train_fraction=0.6)

    def test_reports_have_proportions_summing_to_at_most_one(self, result):
        for report in result.reports:
            assert sum(report.proportions) <= 1.0 + 1e-6
            assert len(report.top_classes) == len(report.same_group)

    def test_confusions_favor_same_group(self, result):
        # Micro cifar10 has 6 classes in 2 groups: base rate of same-group
        # classes among the 5 possible targets is 2/5.
        assert result.same_group_hit_rate >= 0.4

    def test_matrix_rows_sum_to_test_counts(self, result):
        from repro.data.registry import dataset_spec
        spec = dataset_spec("cifar10", "micro")
        np.testing.assert_array_equal(result.matrix.sum(axis=1),
                                      spec.test_per_class)

    def test_format(self, result):
        text = format_fig2(result)
        assert "misclassification" in text
        assert "same-group hit rate" in text


class TestFig3Runner:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(datasets=("core50",), methods=("fifo", "deco"),
                        ipc=1, profile="micro", eval_every=2)

    def test_curves_are_monotone_in_samples(self, result):
        for key, curve in result.curves.items():
            assert curve.samples_seen == sorted(curve.samples_seen)
            assert len(curve.accuracy) == len(curve.samples_seen)

    def test_helpers(self, result):
        curve = result.curve("core50", "deco")
        assert curve_smoothness(curve) >= 0.0
        assert data_to_reach(curve, 0.0) == curve.samples_seen[0]
        assert data_to_reach(curve, 2.0) is None

    def test_format(self, result):
        text = format_fig3(result)
        assert "core50 / deco" in text
        assert "smoothness" in text


class TestFig4Runners:
    def test_fig4a_points_and_tradeoff(self):
        result = run_fig4a(ipc=1, thresholds=(0.0, 0.6), profile="micro")
        assert [p.threshold for p in result.points] == [0.0, 0.6]
        low, high = result.points
        # Raising the threshold can only reduce the retained fraction.
        (high_kept,), (low_kept,) = high.retained_fraction, low.retained_fraction
        assert high_kept <= low_kept + 1e-6
        assert result.best_threshold in (0.0, 0.6)
        text = format_fig4a(result)
        assert "threshold" in text

    def test_fig4b_alphas(self):
        result = run_fig4b(dataset="core50", alphas=(0.0, 0.1), ipcs=(1,),
                           profile="micro")
        assert set(result.accuracy) == {(0.0, 1), (0.1, 1)}
        assert result.best_alpha(1) in (0.0, 0.1)
        text = format_fig4b(result)
        assert "alpha" in text


class TestAblationsRunner:
    def test_variants_run_and_format(self):
        variants = {"deco (full)": {},
                    "no feature discrimination": {"alpha": 0.0}}
        result = run_ablations(ipc=1, variants=variants, profile="micro")
        assert set(result.accuracy) == set(variants)
        assert isinstance(result.delta("no feature discrimination"), float)
        text = format_ablations(result)
        assert "Delta" in text
