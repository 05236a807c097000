"""Crash-resume of experiment grids and back-to-back parallel grids."""

import json

import numpy as np
import pytest

from repro.experiments.common import prepare_experiment
from repro.experiments.grid import grid_journal, run_method_grid
from repro.parallel import SweepTaskError
from repro.persist import json_sanitize

DATASET, PROFILE = "core50", "micro"
CONFIGS = [
    {"method": "fifo", "ipc": 1, "seed": 0},
    {"method": "random", "ipc": 1, "seed": 0},
    {"method": "deco", "ipc": 1, "seed": 0},
]


def journal_lines(checkpoint_dir):
    path = checkpoint_dir / "journal.jsonl"
    if not path.is_file():
        return []
    return [line for line in path.read_text().splitlines() if line.strip()]


def canonical(value):
    """Exact-float JSON text in which NaN equals NaN."""
    return json.dumps(json_sanitize(value), sort_keys=True)


def assert_results_identical(reference, resumed):
    assert len(reference) == len(resumed)
    for ref, res in zip(reference, resumed):
        assert ref.method == res.method
        assert ref.final_accuracy == res.final_accuracy
        assert list(ref.history.accuracy) == list(res.history.accuracy)
        assert list(ref.history.samples_seen) == list(res.history.samples_seen)
        assert canonical(ref.history.diagnostics) == canonical(
            res.history.diagnostics)


@pytest.fixture(scope="module")
def prepared():
    return prepare_experiment(DATASET, PROFILE, seed=0)


class TestGridResume:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupted_grid_resumes_bit_identically(self, prepared,
                                                      tmp_path, jobs):
        reference = run_method_grid(prepared, CONFIGS, jobs=1)

        # Crash: corrupt the last config so the sweep dies after the first
        # two points completed and were journaled.
        broken = [dict(c) for c in CONFIGS]
        broken[-1]["method"] = "no_such_method"
        with pytest.raises(SweepTaskError):
            run_method_grid(prepared, broken, jobs=jobs,
                            checkpoint_dir=tmp_path)
        assert len(journal_lines(tmp_path)) == 2

        resumed = run_method_grid(prepared, CONFIGS, jobs=jobs,
                                  checkpoint_dir=tmp_path, resume=True)
        # Exactly one new line: the completed points were skipped.
        assert len(journal_lines(tmp_path)) == 3
        assert_results_identical(reference, resumed)

    def test_rerun_of_complete_grid_executes_nothing(self, prepared,
                                                     tmp_path):
        reference = run_method_grid(prepared, CONFIGS[:2], jobs=1,
                                    checkpoint_dir=tmp_path)
        lines_before = journal_lines(tmp_path)
        resumed = run_method_grid(prepared, CONFIGS[:2], jobs=1,
                                  checkpoint_dir=tmp_path, resume=True)
        assert journal_lines(tmp_path) == lines_before
        assert_results_identical(reference, resumed)

    def test_journal_against_other_weights_never_matches(self, prepared,
                                                         tmp_path):
        run_method_grid(prepared, CONFIGS[:1], jobs=1,
                        checkpoint_dir=tmp_path)
        other = prepare_experiment(DATASET, PROFILE, seed=1, use_cache=False)
        journal = grid_journal(tmp_path, other)
        assert journal.lookup(journal.key(CONFIGS[0])) is None

    def test_deleted_result_file_reruns_the_point(self, prepared, tmp_path):
        reference = run_method_grid(prepared, CONFIGS[:1], jobs=1,
                                    checkpoint_dir=tmp_path)
        for path in (tmp_path / "results").iterdir():
            path.unlink()
        resumed = run_method_grid(prepared, CONFIGS[:1], jobs=1,
                                  checkpoint_dir=tmp_path, resume=True)
        assert_results_identical(reference, resumed)

    def test_resume_requires_checkpoint_dir(self, prepared):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_method_grid(prepared, CONFIGS[:1], resume=True)


class TestBackToBackGrids:
    def test_two_experiments_match_their_serial_runs(self, prepared):
        """Two jobs=2 grids in a row over experiments that share (dataset,
        profile) but not their pretrained weights: each must reproduce its
        own serial results, never the other experiment's."""
        other = prepare_experiment(DATASET, PROFILE, seed=1, use_cache=False)
        configs = CONFIGS[:2]
        first = run_method_grid(prepared, configs, jobs=2)
        second = run_method_grid(other, configs, jobs=2)

        assert_results_identical(run_method_grid(prepared, configs, jobs=1),
                                 first)
        assert_results_identical(run_method_grid(other, configs, jobs=1),
                                 second)
        # Sanity: the two experiments genuinely differ.
        assert any(a.final_accuracy != b.final_accuracy
                   or a.history.accuracy != b.history.accuracy
                   for a, b in zip(first, second))
