"""Layer-2 sweep executor: shared-memory packs, ordering, crash surfacing."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.parallel import (SharedArrayPack, SweepTaskError, iter_sweep,
                            run_sweep, sweep)


def _square_worker(config, context, arrays):
    base = int(arrays["base"][0]) if arrays else 0
    offset = context["offset"] if context else 0
    return config["i"] ** 2 + base + offset


def _crashy_worker(config, context, arrays):
    if config.get("boom"):
        raise ValueError(f"kaboom-{config['i']}")
    return config["i"] * 2


def _pid_worker(config, context, arrays):
    return os.getpid()


def _mutate_worker(config, context, arrays):
    try:
        arrays["base"][0] = 999
    except ValueError:
        return "read-only"
    return "writable"


# ----------------------------------------------------------------------
# SharedArrayPack
# ----------------------------------------------------------------------
def test_shared_array_pack_round_trip():
    arrays = {
        "a": np.arange(24, dtype=np.float32).reshape(2, 3, 4),
        "b": np.array([1, 2, 3], dtype=np.int64),
        "c": np.zeros((5,), dtype=np.uint8),
    }
    pack = SharedArrayPack.create(arrays)
    try:
        attached = SharedArrayPack.attach(pack.spec())
        views = attached.arrays()
        for name, arr in arrays.items():
            np.testing.assert_array_equal(views[name], arr)
            assert views[name].dtype == arr.dtype
            assert not views[name].flags.writeable
        attached.close(unlink=False)
    finally:
        pack.close()


def test_shared_array_pack_rejects_mutation():
    pack = SharedArrayPack.create({"x": np.ones(4)})
    try:
        view = pack.arrays()["x"]
        with pytest.raises(ValueError):
            view[0] = 2.0
    finally:
        pack.close()


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
    arrays = {"base": np.array([10.0])}
    inline = run_sweep(_square_worker, configs, jobs=1, arrays=arrays,
                       context={"offset": 3})
    fanned = run_sweep(_square_worker, configs, jobs=2, arrays=arrays,
                       context={"offset": 3})
    assert [o.result for o in inline] == [o.result for o in fanned]
    assert [o.config for o in fanned] == configs


def test_process_sweep_uses_worker_processes():
    pids = {o.result for o in
            run_sweep(_pid_worker, [{"i": i} for i in range(4)], jobs=2)}
    assert os.getpid() not in pids


def test_process_sweep_arrays_are_read_only_in_workers():
    # Two configs so the pool path runs (a single config short-circuits to
    # the inline loop, which hands workers the original writable arrays).
    outcomes = run_sweep(_mutate_worker, [{"i": 0}, {"i": 1}], jobs=2,
                         arrays={"base": np.array([1.0])})
    assert all(o.result == "read-only" for o in outcomes)


def test_process_sweep_surfaces_worker_crash_with_config_and_traceback():
    configs = [{"i": 0}, {"i": 1, "boom": True}, {"i": 2}]
    with pytest.raises(SweepTaskError) as exc_info:
        run_sweep(_crashy_worker, configs, jobs=2)
    err = exc_info.value
    assert err.config == {"i": 1, "boom": True}
    assert "ValueError" in err.traceback_text
    assert "kaboom-1" in err.traceback_text


def test_default_start_method_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_MP_START", "spawn")
    assert sweep.default_start_method() == "spawn"
    monkeypatch.setenv("REPRO_MP_START", "not-a-method")
    with pytest.raises(ValueError):
        sweep.default_start_method()
    monkeypatch.delenv("REPRO_MP_START")
    assert sweep.default_start_method() in ("fork", "spawn")


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
# Resource-tracker patch (shm attach on Python < 3.13)
# ----------------------------------------------------------------------
def test_tracker_patch_is_reentrant_and_restores():
    from multiprocessing import resource_tracker
    original = resource_tracker.register
    with sweep._untracked_shm_attach():
        with sweep._untracked_shm_attach():  # nested attach must not break
            assert resource_tracker.register is not original
        assert resource_tracker.register is not original
    assert resource_tracker.register is original
    assert sweep._TRACKER_PATCH_DEPTH == 0


def test_tracker_patch_restores_after_exception():
    from multiprocessing import resource_tracker
    original = resource_tracker.register
    with pytest.raises(RuntimeError):
        with sweep._untracked_shm_attach():
            raise RuntimeError("attach failed")
    assert resource_tracker.register is original


def test_tracker_patch_thread_safe():
    """Concurrent attachers must never capture another attacher's no-op as
    the 'original' register (the bug an unlocked patch allows)."""
    import threading
    from multiprocessing import resource_tracker
    original = resource_tracker.register
    errors = []

    def attach_loop():
        try:
            for _ in range(200):
                with sweep._untracked_shm_attach():
                    pass
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=attach_loop) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert resource_tracker.register is original
    assert sweep._TRACKER_PATCH_DEPTH == 0


# ----------------------------------------------------------------------
# Shared-memory lifecycle: no leaked segments, whatever fails
# ----------------------------------------------------------------------
@pytest.fixture
def track_created_packs(monkeypatch):
    """Capture every SharedArrayPack the sweep creates internally."""
    created = []
    original = SharedArrayPack.create.__func__

    def capture(cls, arrays):
        pack = original(cls, arrays)
        created.append(pack)
        return pack

    monkeypatch.setattr(SharedArrayPack, "create", classmethod(capture))
    return created


def _assert_unlinked(pack):
    from multiprocessing import shared_memory
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=pack._shm.name)


def test_no_leaked_segment_after_sweep_task_error(track_created_packs):
    configs = [{"i": 0}, {"i": 1, "boom": True}, {"i": 2}]
    with pytest.raises(SweepTaskError):
        run_sweep(_crashy_worker, configs, jobs=2,
                  arrays={"base": np.array([1.0])})
    assert len(track_created_packs) == 1
    _assert_unlinked(track_created_packs[0])


def test_no_leaked_segment_when_pool_startup_fails(track_created_packs):
    # A bad start method raises between pack creation and pool spin-up —
    # exactly the window the try/finally must cover.
    with pytest.raises(ValueError):
        run_sweep(_square_worker, [{"i": 0}, {"i": 1}], jobs=2,
                  arrays={"base": np.array([1.0])},
                  start_method="not-a-method")
    assert len(track_created_packs) == 1
    _assert_unlinked(track_created_packs[0])


def test_no_leaked_segment_after_clean_sweep(track_created_packs):
    run_sweep(_square_worker, [{"i": i} for i in range(3)], jobs=2,
              arrays={"base": np.array([1.0])})
    assert len(track_created_packs) == 1
    _assert_unlinked(track_created_packs[0])


# ----------------------------------------------------------------------
# iter_sweep: as-completed streaming
# ----------------------------------------------------------------------
def _slow_worker(config, context, arrays):
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


def test_iter_sweep_early_close_releases_shared_memory(track_created_packs):
    configs = [{"i": i} for i in range(4)]
    stream = iter_sweep(_square_worker, configs, jobs=2,
                        arrays={"base": np.array([1.0])})
    next(stream)  # consume one point, then abandon the sweep
    stream.close()
    assert len(track_created_packs) == 1
    _assert_unlinked(track_created_packs[0])


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
