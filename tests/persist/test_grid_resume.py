"""Crash-resume of experiment grids + the stale worker-cache regression."""

import json

import numpy as np
import pytest

from repro.experiments import grid as grid_mod
from repro.experiments.common import prepare_experiment, run_method
from repro.experiments.grid import (grid_journal, pack_prepared,
                                    run_method_grid)
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


class TestWorkerCacheKeying:
    def test_back_to_back_grids_with_different_weights(self, prepared,
                                                       monkeypatch):
        """Regression: the per-worker prepared cache was keyed by
        (dataset, profile), so a second grid over the *same* dataset but
        different pretrained weights silently reused the first grid's
        experiment.  Keying by content hash must rebuild."""
        monkeypatch.setattr(grid_mod, "_WORKER_CACHE", {})
        other = prepare_experiment(DATASET, PROFILE, seed=1, use_cache=False)
        config = {"method": "fifo", "ipc": 1, "seed": 0}

        first = grid_mod._grid_worker(
            dict(config), *reversed(pack_prepared(prepared)))
        second = grid_mod._grid_worker(
            dict(config), *reversed(pack_prepared(other)))

        expected = run_method(other, **config)
        assert second.final_accuracy == expected.final_accuracy
        assert list(second.history.accuracy) == list(
            expected.history.accuracy)
        # Sanity: the two experiments genuinely differ.
        assert (first.final_accuracy != second.final_accuracy
                or first.history.accuracy != second.history.accuracy)

    def test_cache_is_bounded(self, prepared, monkeypatch):
        monkeypatch.setattr(grid_mod, "_WORKER_CACHE", {})
        config = {"method": "fifo", "ipc": 1, "seed": 0}
        for seed in range(3):
            exp = prepare_experiment(DATASET, PROFILE, seed=seed,
                                     use_cache=False)
            grid_mod._grid_worker(dict(config), *reversed(pack_prepared(exp)))
        assert len(grid_mod._WORKER_CACHE) <= grid_mod._WORKER_CACHE_MAX
