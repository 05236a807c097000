"""Unit tests for experiment result containers (no experiment runs needed)."""

import numpy as np
import pytest

from repro.experiments.fig3 import LearningCurve, curve_smoothness, data_to_reach
from repro.experiments.fig4 import Fig4aPoint, Fig4aResult, Fig4bResult
from repro.experiments.noise import NoiseRobustnessResult
from repro.experiments.table1 import Table1Result, format_table1
from repro.experiments.table2 import Table2Entry, Table2Result, format_table2


def build_table1():
    result = Table1Result(datasets=("d",), ipcs=(1,), baselines=("random", "fifo"))
    result.cells[("d", 1, "random")] = [0.30, 0.32]
    result.cells[("d", 1, "fifo")] = [0.40, 0.42]
    result.cells[("d", 1, "deco")] = [0.60, 0.62]
    result.upper_bounds["d"] = [0.9]
    return result


class TestTable1Result:
    def test_cell_statistics(self):
        result = build_table1()
        assert result.mean("d", 1, "deco") == pytest.approx(0.61)
        assert "61.00±1.00" in format_table1(result)

    def test_best_baseline(self):
        result = build_table1()
        name, acc = result.best_baseline("d", 1)
        assert name == "fifo"
        assert acc == pytest.approx(0.41)

    def test_improvement_percent(self):
        result = build_table1()
        assert result.improvement("d", 1) == pytest.approx(
            100 * (0.61 - 0.41) / 0.41)

    def test_format_includes_mean_std_cells(self):
        text = format_table1(build_table1())
        assert "41.00±1.00" in text
        assert "61.00±1.00" in text
        assert "90.00±0.00" in text


class TestTable2Result:
    def test_speedup(self):
        result = Table2Result(condensers=("dc", "deco"), ipcs=(1,))
        result.entries[("dc", 1)] = Table2Entry("dc", 1, [90.0, 110.0],
                                                [0.5, 0.5], [10, 10])
        result.entries[("deco", 1)] = Table2Entry("deco", 1, [10.0, 10.0],
                                                  [0.5, 0.5], [5, 5])
        assert result.speedup("dc", "deco", 1) == pytest.approx(10.0)

    def test_format_upper_cases_methods(self):
        result = Table2Result(condensers=("dm",), ipcs=(1,))
        result.entries[("dm", 1)] = Table2Entry("dm", 1, [1.5], [0.25], [3])
        text = format_table2(result)
        assert "DM" in text
        assert "1.5±0.0" in text


class TestFig3Helpers:
    def test_data_to_reach_first_crossing(self):
        curve = LearningCurve("m", [10, 20, 30], [0.1, 0.5, 0.4])
        assert data_to_reach(curve, 0.45) == 20
        assert data_to_reach(curve, 0.9) is None

    def test_smoothness_of_flat_curve(self):
        assert curve_smoothness(LearningCurve("m", [1, 2], [0.5, 0.5])) == 0.0

    def test_final_accuracy(self):
        assert LearningCurve("m", [1], [0.7]).final_accuracy == 0.7


class TestFig4Results:
    def test_best_threshold(self):
        result = Fig4aResult(dataset="d", points=[
            Fig4aPoint(0.0, [1.0], [0.5], [0.40, 0.40]),
            Fig4aPoint(0.4, [0.5], [0.9], [0.60, 0.50]),
            Fig4aPoint(0.8, [0.1], [1.0], [0.45, 0.45]),
        ])
        assert result.best_threshold == 0.4

    def test_best_alpha(self):
        result = Fig4bResult(dataset="d", alphas=(0.0, 0.1), ipcs=(5,))
        result.accuracy[(0.0, 5)] = [0.3]
        result.accuracy[(0.1, 5)] = [0.4]
        assert result.best_alpha(5) == 0.1


class TestNoiseResult:
    def test_discrimination_gain(self):
        result = NoiseRobustnessResult(dataset="d", ipc=1,
                                       noise_rates=(0.0,), alphas=(0.0, 0.1))
        result.accuracy[(0.0, 0.0)] = [0.50, 0.50]
        result.accuracy[(0.0, 0.1)] = [0.56, 0.60]
        assert result.discrimination_gain(0.0) == pytest.approx(0.08)
