"""Integration: a DECOLearner run emits the documented event schema.

The README's "Observability" section documents the ``segment`` event
fields; these tests pin that schema so instrumentation drift breaks
loudly here rather than silently in downstream trace consumers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.buffer.buffer import SyntheticBuffer
from repro.condensation.one_step import OneStepMatcher
from repro.core.deco import DECOLearner, condense_offline
from repro.core.learner import LearnerConfig
from repro.core.pseudo_label import MajorityVotePseudoLabeler
from repro.core.training import train_model
from repro.data.datasets import DatasetSpec, make_dataset
from repro.data.stream import make_stream
from repro.nn.convnet import ConvNet
from repro.obs import ListSink

# The per-segment schema documented in README "Observability".
SEGMENT_ALWAYS = {"type", "ts", "segment", "samples_seen", "retrain",
                  "retained_fraction", "active_classes",
                  "pseudo_labels_total", "pseudo_labels_kept", "vote_margin",
                  "pseudo_label_accuracy", "retained_label_accuracy"}
SEGMENT_WHEN_CONDENSED = {"matching_loss", "condense_passes",
                          "discrimination_loss", "alpha", "buffer_drift_l2",
                          "grad_cosine"}
# The per-class condensation-quality event schema (README "Observability").
QUALITY_FIELDS = {"type", "ts", "segment", "classes", "precision", "kept",
                  "ages", "updates", "drift_l2", "slots_per_class",
                  "occupancy", "grad_cosine", "health_skipped"}

DS = make_dataset(DatasetSpec(name="toy", num_classes=3, image_size=8,
                              train_per_class=20, test_per_class=8,
                              num_groups=3, num_sessions=1,
                              class_separation=0.8, noise_std=0.5), seed=0)


@pytest.fixture(autouse=True)
def _clean_registry():
    obs.shutdown()
    obs.reset()
    yield
    obs.shutdown()
    obs.reset()


def make_learner():
    model = ConvNet(3, 3, 8, width=8, depth=2, rng=np.random.default_rng(0))
    x, y = DS.pretrain_subset(0.3, rng=np.random.default_rng(0))
    train_model(model, x, y, epochs=8, lr=1e-2, rng=np.random.default_rng(0))
    buffer = SyntheticBuffer(3, 2, DS.image_shape())
    learner = DECOLearner(
        model, buffer, condenser=OneStepMatcher(iterations=2, alpha=0.1),
        labeler=MajorityVotePseudoLabeler(0.4),
        config=LearnerConfig(beta=2, train_epochs=2, lr=1e-2),
        rng=np.random.default_rng(0))
    condense_offline(buffer, x, y, condenser=learner.condenser,
                     model_factory=learner.model_factory, rng=0)
    return learner


def run_traced():
    sink = ListSink()
    obs.enable(sink)
    learner = make_learner()
    stream = make_stream(DS, segment_size=10, stc=10,
                         rng=np.random.default_rng(0))
    learner.run(stream, x_test=DS.x_test, y_test=DS.y_test)
    obs.disable()
    return sink.records, len(stream)


class TestSegmentEventSchema:
    def test_one_segment_event_per_segment(self):
        records, n_segments = run_traced()
        segments = [r for r in records if r["type"] == "segment"]
        assert len(segments) == n_segments
        assert [s["segment"] for s in segments] == list(range(n_segments))

    def test_documented_fields_present(self):
        records, _ = run_traced()
        segments = [r for r in records if r["type"] == "segment"]
        for seg in segments:
            missing = SEGMENT_ALWAYS - set(seg)
            assert not missing, f"segment event missing {missing}: {seg}"
        condensed = [s for s in segments if s["active_classes"]]
        assert condensed, "trace should contain at least one condensed segment"
        for seg in condensed:
            missing = SEGMENT_WHEN_CONDENSED - set(seg)
            assert not missing, f"condensed segment missing {missing}"
            assert seg["alpha"] == pytest.approx(0.1)
            assert seg["buffer_drift_l2"] >= 0.0
            assert seg["pseudo_labels_kept"] <= seg["pseudo_labels_total"]

    def test_retrain_flag_follows_beta(self):
        records, _ = run_traced()
        segments = [r for r in records if r["type"] == "segment"]
        for seg in segments:  # beta=2: every second segment retrains
            assert seg["retrain"] == ((seg["segment"] + 1) % 2 == 0)

    def test_pass_spans_and_counters_present(self):
        records, _ = run_traced()
        span_names = {r["name"] for r in records if r["type"] == "span"}
        for expected in ("segment", "pseudo_label", "condense", "retrain",
                         "pass.g_real", "pass.g_syn", "pass.grad_distance",
                         "pass.fd_total", "pass.discrimination"):
            assert expected in span_names, f"missing span {expected!r}"
        # The FD evaluation runs either fused (one grouped dispatch) or as
        # the sequential ±ε pair, depending on the cached fuse verdict.
        assert ("pass.fd_fused" in span_names
                or {"pass.fd_plus", "pass.fd_minus"} <= span_names), \
            f"no FD evaluation spans in {sorted(span_names)}"
        counters = [r for r in records if r["type"] == "counters"]
        assert counters and "health.checks" in counters[-1]
        assert counters[-1]["memory.model.params_bytes"] > 0

    def test_eval_events_recorded(self):
        records, _ = run_traced()
        evals = [r for r in records if r["type"] == "eval"]
        assert evals
        assert all(0.0 <= e["accuracy"] <= 1.0 for e in evals)

    def test_quality_event_per_condensed_segment(self):
        records, _ = run_traced()
        segments = [r for r in records if r["type"] == "segment"]
        condensed = [s["segment"] for s in segments if s["active_classes"]]
        quality = [r for r in records if r["type"] == "quality"]
        assert [q["segment"] for q in quality] == condensed
        for q in quality:
            missing = QUALITY_FIELDS - set(q)
            assert not missing, f"quality event missing {missing}: {q}"
            n = len(q["classes"])
            for key in ("precision", "kept", "ages", "updates", "drift_l2"):
                assert len(q[key]) == n, f"{key} not per-class: {q}"
            assert 0.0 <= q["occupancy"] <= 1.0
            assert -1.0 <= q["grad_cosine"] <= 1.0 \
                or q["grad_cosine"] != q["grad_cosine"]  # NaN allowed
            for p in q["precision"]:
                assert 0.0 <= p <= 1.0 or p != p

    def test_quality_ages_and_updates_advance(self):
        records, _ = run_traced()
        quality = [r for r in records if r["type"] == "quality"]
        seen: dict[int, int] = {}
        for q in quality:
            for c, age, count in zip(q["classes"], q["ages"], q["updates"]):
                if c in seen:
                    assert age == q["segment"] - seen[c]
                else:
                    assert age == -1
                assert count >= 1
                seen[c] = q["segment"]

    def test_history_identical_with_and_without_telemetry(self):
        obs.disable()
        plain = make_learner().run(
            make_stream(DS, segment_size=10, stc=10,
                        rng=np.random.default_rng(0)),
            x_test=DS.x_test, y_test=DS.y_test)
        traced_records, _ = run_traced()
        obs.disable()
        traced_acc = [r["accuracy"] for r in traced_records
                      if r["type"] == "eval"][-1]
        assert plain.final_accuracy == pytest.approx(traced_acc)
