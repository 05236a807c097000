"""Smoke tests: every example script runs end-to-end at micro scale."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=300):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "--profile", "micro", "--ipc", "1")
        assert "DECO vs FIFO" in out
        assert "final accuracy" in out

    def test_streaming_core50(self):
        out = run_example("streaming_core50.py", "--profile", "micro",
                          "--ipc", "1", "--show-buffer")
        assert "learning curve" in out
        assert "final accuracy" in out
        # The buffer grid: one labelled 8-px cell per class (4 at micro).
        grid = out.split("condensed buffer")[1].splitlines()[1:]
        assert grid[0].split() == ["[0]", "[1]", "[2]", "[3]"]
        assert len(grid) == 1 + 8
        assert all(len(row) == 4 * 8 + 3 * 2 for row in grid[1:])

    def test_condensation_comparison(self):
        out = run_example("condensation_comparison.py", "--profile", "micro",
                          "--ipc", "1", "--iters", "2")
        for method in ("deco", "dc", "dsa", "dm"):
            assert method in out

    def test_pseudo_label_analysis(self):
        out = run_example("pseudo_label_analysis.py", "--profile", "micro")
        assert "session-ordered" in out
        assert "i.i.d. control" in out

    def test_custom_dataset(self):
        out = run_example("custom_dataset.py")
        assert "feature discrimination" in out
        assert "confusable groups" in out

    def test_all_examples_are_tested(self):
        scripts = {p.name for p in EXAMPLES.glob("*.py")}
        tested = {"quickstart.py", "streaming_core50.py",
                  "condensation_comparison.py", "pseudo_label_analysis.py",
                  "custom_dataset.py"}
        assert scripts == tested, "new example without a smoke test"
