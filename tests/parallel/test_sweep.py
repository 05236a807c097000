"""Layer-2 sweep executor: ordering, start methods, crash surfacing."""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import textwrap

import pytest

from repro.parallel import SweepTaskError, iter_sweep, run_sweep, sweep


def _square_worker(config, context):
    offset = context["offset"] if context else 0
    return config["i"] ** 2 + offset


def _crashy_worker(config, context):
    if config.get("boom"):
        raise ValueError(f"kaboom-{config['i']}")
    return config["i"] * 2


def _pid_worker(config, context):
    return os.getpid()


# ----------------------------------------------------------------------
# run_sweep, inline (jobs=1)
# ----------------------------------------------------------------------
def test_inline_sweep_preserves_order_and_metadata():
    configs = [{"i": i} for i in range(5)]
    outcomes = run_sweep(_square_worker, configs, jobs=1,
                         context={"offset": 1})
    assert [o.result for o in outcomes] == [i ** 2 + 1 for i in range(5)]
    assert all(o.ok for o in outcomes)
    assert all(o.worker_pid == os.getpid() for o in outcomes)
    assert [o.config for o in outcomes] == configs


def test_inline_sweep_raises_sweep_task_error():
    configs = [{"i": 0}, {"i": 1, "boom": True}, {"i": 2}]
    with pytest.raises(SweepTaskError) as exc_info:
        run_sweep(_crashy_worker, configs, jobs=1)
    err = exc_info.value
    assert err.config == {"i": 1, "boom": True}
    assert "ValueError" in err.traceback_text
    assert "kaboom-1" in err.traceback_text


def test_inline_sweep_collects_errors_when_not_raising():
    configs = [{"i": 0}, {"i": 1, "boom": True}, {"i": 2}]
    outcomes = run_sweep(_crashy_worker, configs, jobs=1,
                         raise_on_error=False)
    assert [o.ok for o in outcomes] == [True, False, True]
    assert "kaboom-1" in outcomes[1].error
    assert outcomes[2].result == 4


def test_empty_and_invalid_inputs():
    assert run_sweep(_square_worker, [], jobs=4) == []
    with pytest.raises(ValueError):
        run_sweep(_square_worker, [{"i": 1}], jobs=0)


# ----------------------------------------------------------------------
# run_sweep, multiprocess (jobs>1)
# ----------------------------------------------------------------------
def test_process_sweep_matches_inline_results():
    configs = [{"i": i} for i in range(6)]
    inline = run_sweep(_square_worker, configs, jobs=1,
                       context={"offset": 3})
    fanned = run_sweep(_square_worker, configs, jobs=2,
                       context={"offset": 3})
    assert [o.result for o in inline] == [o.result for o in fanned]
    assert [o.config for o in fanned] == configs


def test_spawn_sweep_matches_inline_results(monkeypatch, tmp_path):
    # ``spawn`` is the only start method on platforms without ``fork``:
    # the workers load the context from a file instead of inheriting it.
    monkeypatch.setattr(sweep, "default_start_method", lambda: "spawn")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    configs = [{"i": i} for i in range(4)]
    inline = run_sweep(_square_worker, configs, jobs=1,
                       context={"offset": 5})
    spawned = run_sweep(_square_worker, configs, jobs=2,
                        context={"offset": 5})
    assert [o.result for o in spawned] == [o.result for o in inline]
    assert [o.config for o in spawned] == configs
    assert all(o.worker_pid != os.getpid() for o in spawned)
    assert list(tmp_path.iterdir()) == []  # the context file is removed


def test_spawn_worker_dying_at_bootstrap_raises_not_hangs(tmp_path):
    # Without a ``__main__`` guard a spawn worker dies re-running the
    # script.  With a context larger than a pipe buffer the parent must
    # still see the death and raise, not block writing the context.
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent("""
        import numpy as np
        from repro.parallel import sweep

        sweep.default_start_method = lambda: "spawn"

        def work(config, context):
            return float(context["x"][config["i"]])

        sweep.run_sweep(work, [{"i": 0}, {"i": 1}], jobs=2,
                        context={"x": np.zeros(1 << 18)})  # 2 MiB
    """))
    result = subprocess.run([sys.executable, str(script)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "SweepTaskError" in result.stderr


def test_process_sweep_uses_worker_processes():
    pids = {o.result for o in
            run_sweep(_pid_worker, [{"i": i} for i in range(4)], jobs=2)}
    assert os.getpid() not in pids


def test_process_sweep_surfaces_worker_crash_with_config_and_traceback():
    configs = [{"i": 0}, {"i": 1, "boom": True}, {"i": 2}]
    with pytest.raises(SweepTaskError) as exc_info:
        run_sweep(_crashy_worker, configs, jobs=2)
    err = exc_info.value
    assert err.config == {"i": 1, "boom": True}
    assert "ValueError" in err.traceback_text
    assert "kaboom-1" in err.traceback_text


# ----------------------------------------------------------------------
# Journal integration
# ----------------------------------------------------------------------
def test_sweep_records_and_resumes_via_journal(tmp_path):
    from repro.persist import ResumeJournal
    configs = [{"i": i} for i in range(3)]
    journal = ResumeJournal(tmp_path / "j.jsonl")
    run_sweep(_square_worker, configs, jobs=1, journal=journal)
    assert len(journal) == 3

    reloaded = ResumeJournal(tmp_path / "j.jsonl")
    outcomes = run_sweep(_square_worker, configs, jobs=1, journal=reloaded,
                         resume=True)
    assert all(o.extra.get("resumed") for o in outcomes)
    # Nothing re-executed, so nothing new was appended.
    assert len(ResumeJournal(tmp_path / "j.jsonl")) == 3


def test_sweep_resume_requires_journal():
    with pytest.raises(ValueError, match="journal"):
        run_sweep(_square_worker, [{"i": 0}], resume=True)


def test_sweep_does_not_journal_failures(tmp_path):
    from repro.persist import ResumeJournal
    journal = ResumeJournal(tmp_path / "j.jsonl")
    configs = [{"i": 0}, {"i": 1, "boom": True}]
    with pytest.raises(SweepTaskError):
        run_sweep(_crashy_worker, configs, jobs=1, journal=journal)
    reloaded = ResumeJournal(tmp_path / "j.jsonl")
    assert len(reloaded) == 1
    assert reloaded.lookup(reloaded.key(configs[0])) is not None
    assert reloaded.lookup(reloaded.key(configs[1])) is None


def test_sweep_failure_defers_until_remaining_points_journal(tmp_path):
    # A fast-failing config must not abandon points still in flight: the
    # raise is deferred until the stream drains, so every good point's
    # journal line lands first (on a one-core box the bad point often
    # completes before a slower good point).
    from repro.persist import ResumeJournal
    journal = ResumeJournal(tmp_path / "j.jsonl")
    configs = [{"i": 0, "boom": True}, {"i": 1}, {"i": 2}]
    with pytest.raises(SweepTaskError) as exc_info:
        run_sweep(_crashy_worker, configs, jobs=1, journal=journal)
    assert exc_info.value.config == configs[0]
    reloaded = ResumeJournal(tmp_path / "j.jsonl")
    assert len(reloaded) == 2
    assert reloaded.lookup(reloaded.key(configs[1])) is not None
    assert reloaded.lookup(reloaded.key(configs[2])) is not None


def test_sweep_raises_lowest_index_failure(tmp_path):
    from repro.persist import ResumeJournal
    journal = ResumeJournal(tmp_path / "j.jsonl")
    configs = [{"i": 0}, {"i": 1, "boom": True}, {"i": 2, "boom": True}]
    with pytest.raises(SweepTaskError) as exc_info:
        run_sweep(_crashy_worker, configs, jobs=2, journal=journal)
    assert exc_info.value.config == configs[1]
    assert len(ResumeJournal(tmp_path / "j.jsonl")) == 1


def test_sweep_deferred_failure_enables_clean_resume(tmp_path):
    # The crash/resume contract the grid-resume tests rely on: after a
    # sweep with one bad point, fixing the config and resuming re-runs
    # only the previously-failed point.
    from repro.persist import ResumeJournal
    journal = ResumeJournal(tmp_path / "j.jsonl")
    configs = [{"i": 0}, {"i": 1, "boom": True}]
    with pytest.raises(SweepTaskError):
        run_sweep(_crashy_worker, configs, jobs=2, journal=journal)
    fixed = [{"i": 0}, {"i": 1}]
    reloaded = ResumeJournal(tmp_path / "j.jsonl")
    outcomes = run_sweep(_crashy_worker, fixed, jobs=1, journal=reloaded,
                         resume=True)
    assert outcomes[0].extra.get("resumed")
    assert not outcomes[1].extra.get("resumed")
    assert outcomes[1].result == 2  # only the failed point re-ran


# ----------------------------------------------------------------------
# iter_sweep: as-completed streaming
# ----------------------------------------------------------------------
def _slow_worker(config, context):
    import time
    time.sleep(config.get("sleep", 0.0))
    return config["i"]


def test_iter_sweep_inline_streams_in_config_order():
    configs = [{"i": i} for i in range(4)]
    pairs = list(iter_sweep(_square_worker, configs, jobs=1))
    assert [index for index, _ in pairs] == [0, 1, 2, 3]
    assert [outcome.result for _, outcome in pairs] == [0, 1, 4, 9]


def test_iter_sweep_pool_yields_every_point_once():
    configs = [{"i": i} for i in range(5)]
    pairs = list(iter_sweep(_square_worker, configs, jobs=2))
    assert sorted(index for index, _ in pairs) == list(range(5))
    for index, outcome in pairs:
        assert outcome.result == index ** 2
        assert outcome.config == {"i": index}


def test_iter_sweep_respects_indices_subset():
    configs = [{"i": i} for i in range(6)]
    pairs = list(iter_sweep(_square_worker, configs, jobs=1,
                            indices=[4, 1]))
    assert [index for index, _ in pairs] == [4, 1]


def test_iter_sweep_early_close_merges_worker_shards(tmp_path):
    from repro.obs.sinks import read_jsonl_tolerant

    configs = [{"i": i} for i in range(4)]
    stream = iter_sweep(_square_worker, configs, jobs=2,
                        telemetry_dir=tmp_path)
    index, _ = next(stream)  # consume one point, then abandon the sweep
    stream.close()
    records, _ = read_jsonl_tolerant(tmp_path / "workers.jsonl")
    merged = {r["task_index"] for r in records
              if r.get("type") == "shard_start"}
    assert index in merged


def test_run_sweep_on_result_sees_every_point():
    calls = []
    configs = [{"i": i} for i in range(4)]
    outcomes = run_sweep(_square_worker, configs, jobs=1,
                         on_result=lambda i, o: calls.append((i, o.result)))
    assert calls == [(0, 0), (1, 1), (2, 4), (3, 9)]
    assert [o.result for o in outcomes] == [0, 1, 4, 9]


def test_run_sweep_on_result_includes_resumed_points(tmp_path):
    from repro.persist import ResumeJournal
    configs = [{"i": i} for i in range(3)]
    journal = ResumeJournal(tmp_path / "j.jsonl")
    run_sweep(_square_worker, configs, journal=journal)

    calls = []
    journal2 = ResumeJournal(tmp_path / "j.jsonl")
    outcomes = run_sweep(_square_worker, configs, journal=journal2,
                         resume=True,
                         on_result=lambda i, o: calls.append(
                             (i, bool(o.extra.get("resumed")))))
    assert calls == [(0, True), (1, True), (2, True)]
    assert all(o.extra.get("resumed") for o in outcomes)


def test_run_sweep_report_identical_with_and_without_streaming():
    configs = [{"i": i} for i in range(5)]
    serial = run_sweep(_square_worker, configs, jobs=1)
    streamed = run_sweep(_square_worker, configs, jobs=2,
                         on_result=lambda i, o: None)
    assert [o.result for o in streamed] == [o.result for o in serial]
    assert [o.config for o in streamed] == [o.config for o in serial]


def test_pool_sweep_emits_heartbeat_for_slow_points(tmp_path):
    from repro import obs
    from repro.obs import Telemetry, scoped_telemetry
    from repro.obs.sinks import JsonlSink, read_jsonl_tolerant

    registry = Telemetry()
    trace = tmp_path / "trace.jsonl"
    registry.enable(JsonlSink(trace))
    with scoped_telemetry(registry):
        run_sweep(_slow_worker,
                  [{"i": 0, "sleep": 0.5}, {"i": 1, "sleep": 0.5}],
                  jobs=2, heartbeat_s=0.05)
        registry.shutdown()
    records, _ = read_jsonl_tolerant(trace)
    beats = [r for r in records if r.get("type") == "sweep_heartbeat"]
    assert beats
    assert beats[0]["pending"] == 2
    assert beats[0]["completed"] == 0
