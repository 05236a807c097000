"""Unit tests for the memory ledger (repro.obs.memory)."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.obs.memory import (DISK_ACCOUNT_PREFIX, DeepAuditReport,
                              MemoryLedger, default_ledger, track_object)


class TestRecordedEntries:
    def test_record_and_drop_roundtrip(self):
        ledger = MemoryLedger()
        ledger.record("buffer.synthetic", "a", 1000)
        ledger.record("buffer.synthetic", "b", 500)
        assert ledger.totals() == {"buffer.synthetic": 1500}
        assert ledger.ram_recorded_bytes == 1500
        ledger.drop("buffer.synthetic", "a")
        assert ledger.totals() == {"buffer.synthetic": 500}
        ledger.drop("buffer.synthetic", "b")
        assert ledger.ram_recorded_bytes == 0
        assert ledger.totals() == {}

    def test_record_same_key_updates_not_accumulates(self):
        # Checkpoint rewrites record under the same key: the account must
        # reflect the latest size, not the running sum.
        ledger = MemoryLedger()
        ledger.record("disk.checkpoints", "/ckpt", 100)
        ledger.record("disk.checkpoints", "/ckpt", 300)
        assert ledger.totals() == {"disk.checkpoints": 300}

    def test_drop_unknown_key_is_noop(self):
        ledger = MemoryLedger()
        ledger.drop("buffer.synthetic", "never-recorded")
        assert ledger.totals() == {}

    def test_disk_accounts_excluded_from_ram(self):
        ledger = MemoryLedger()
        ledger.record("buffer.raw", "a", 1000)
        ledger.record(DISK_ACCOUNT_PREFIX + "checkpoints", "c", 10_000)
        assert ledger.ram_recorded_bytes == 1000
        assert ledger.tracked_ram_bytes() == 1000
        assert ledger.totals()["disk.checkpoints"] == 10_000

    def test_tracking_off_records_nothing(self):
        ledger = MemoryLedger()
        ledger.tracking = False
        ledger.record("buffer.raw", "a", 1000)
        assert ledger.totals() == {}

    def test_entry_counts(self):
        ledger = MemoryLedger()
        ledger.record("model.params", "m1", 10)
        ledger.record("model.params", "m2", 20)
        assert ledger.entry_counts() == {"model.params": 2}


class TestHighWater:
    def test_high_water_survives_drops(self):
        ledger = MemoryLedger()
        ledger.record("buffer.raw", "a", 4000)
        ledger.drop("buffer.raw", "a")
        ledger.record("buffer.raw", "b", 100)
        assert ledger.high_water_bytes == 4000
        assert ledger.ram_recorded_bytes == 100


class TestProcessGauges:
    def test_rss_and_snapshot(self):
        ledger = MemoryLedger()
        ledger.record("buffer.raw", "a", 100)
        snap = ledger.snapshot()
        assert snap["tracked_bytes"] == 100
        assert snap["accounts"]["buffer.raw"] == 100
        # Linux CI: /proc is available, so these are real positive numbers.
        assert snap["rss_bytes"] > 0
        assert snap["peak_rss_bytes"] > 0


class TestTrackObject:
    def test_entry_dropped_on_garbage_collection(self):
        ledger = MemoryLedger()

        class Owner:
            pass

        owner = Owner()
        track_object("buffer.synthetic", owner, 2048, ledger=ledger)
        assert ledger.totals() == {"buffer.synthetic": 2048}
        del owner
        gc.collect()
        assert ledger.totals() == {}

    def test_keys_are_unique_across_objects(self):
        ledger = MemoryLedger()

        class Owner:
            pass

        a, b = Owner(), Owner()
        key_a = track_object("x", a, 1, ledger=ledger)
        key_b = track_object("x", b, 2, ledger=ledger)
        assert key_a != key_b
        assert ledger.totals() == {"x": 3}


class TestDeepAudit:
    def test_report_ok_tolerance(self):
        report = DeepAuditReport(ledger_delta=100, traced_delta=105,
                                 tolerance=0.10)
        assert report.ok
        report = DeepAuditReport(ledger_delta=100, traced_delta=200,
                                 tolerance=0.10)
        assert not report.ok

    def test_audit_matches_tracked_numpy_allocation(self):
        ledger = MemoryLedger()
        with ledger.deep_audit(tolerance=0.10) as report:
            payload = np.zeros((256, 1024), dtype=np.float32)  # 1 MiB
            ledger.record("buffer.synthetic", "p", payload.nbytes)
        assert report.account_deltas == {"buffer.synthetic": payload.nbytes}
        assert report.ok, (report.ledger_delta, report.traced_delta)

    def test_audit_ignores_disk_accounts(self):
        ledger = MemoryLedger()
        with ledger.deep_audit() as report:
            ledger.record("disk.checkpoints", "c", 10 ** 9)
        assert report.ledger_delta == 0
        assert report.account_deltas == {"disk.checkpoints": 10 ** 9}


class TestDefaultLedgerWiring:
    def test_instrumented_sites_register_accounts(self):
        # Every account on the process-wide ledger is recorded by the
        # object that owns the bytes: the conv kernels keep no cache, so
        # running one leaves the ledger as it was.
        from repro.buffer.buffer import RawBuffer
        from repro.nn import functional as F
        from repro.nn.tensor import Tensor

        before = default_ledger.totals()
        F.conv2d(Tensor(np.ones((1, 2, 6, 6), dtype=np.float32)),
                 Tensor(np.ones((3, 2, 3, 3), dtype=np.float32)), padding=1)
        assert default_ledger.totals() == before
        buf = RawBuffer(2, (3, 8, 8))
        assert default_ledger.totals()["buffer.raw"] >= buf.memory_bytes

    def test_synthetic_buffer_is_tracked(self):
        from repro.buffer.buffer import SyntheticBuffer

        before = default_ledger.totals().get("buffer.synthetic", 0)
        buf = SyntheticBuffer(2, 3, (3, 8, 8))
        # The tracked payload is memory_bytes — the stored pixels; the
        # structural labels (row c*ipc+k is class c by construction) are
        # excluded from the accounting.
        payload = buf.memory_bytes
        assert payload == buf.images.nbytes
        after = default_ledger.totals()["buffer.synthetic"]
        assert after == before + payload
        del buf
        gc.collect()
        assert (default_ledger.totals().get("buffer.synthetic", 0)
                == before)

    def test_model_params_tracked_and_footprint(self):
        from repro.buffer.buffer import RawBuffer
        from repro.buffer.selection import make_strategy
        from repro.core.replay import ReplayLearner
        from repro.nn.convnet import ConvNet

        rng = np.random.default_rng(0)
        model = ConvNet(3, 4, 16, width=8, depth=2, rng=rng)
        nbytes = sum(p.data.nbytes for p in model.parameters())
        before = default_ledger.totals().get("model.params", 0)
        buffer = RawBuffer(4, (3, 16, 16))
        learner = ReplayLearner(model, buffer, make_strategy("fifo"), rng=rng)
        after = default_ledger.totals()["model.params"]
        assert after >= before + nbytes
        foot = learner.memory_footprint()
        assert foot["model_bytes"] == nbytes
        assert foot["buffer_bytes"] == learner.buffer_nbytes() > 0
        assert foot["total_bytes"] == foot["buffer_bytes"] + nbytes
        assert foot["peak_bytes"] >= foot["total_bytes"]
