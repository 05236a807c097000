"""Bench-history regression tracking: baselines, thresholds, tag matching."""

from __future__ import annotations

import pytest

from repro.obs import (append_history, check_regressions, compare_history,
                       format_regress_report, load_history,
                       metrics_from_snapshot)
from repro.obs.regress import (DEFAULT_THRESHOLD, HISTORY_FILENAME,
                               probes_from_snapshot)

TAGS = {"platform": "test-box", "threads": 1}


def entry(metrics, tags=TAGS):
    return {"section": "kernels", "tags": dict(tags),
            "metrics": dict(metrics)}


def history(values, name="kernels/conv2d_fwd", tags=TAGS):
    return [entry({name: v}, tags) for v in values]


# ----------------------------------------------------------------------
# compare_history
# ----------------------------------------------------------------------
class TestCompare:
    def test_injected_slowdown_is_flagged(self):
        report = compare_history(history([1.0, 1.0, 1.0, 1.25]))
        assert not report.ok
        (delta,) = report.regressions
        assert delta.name == "kernels/conv2d_fwd"
        assert delta.baseline == pytest.approx(1.0)
        assert delta.ratio == pytest.approx(1.25)

    def test_flat_history_passes(self):
        report = compare_history(history([1.0, 1.02, 0.98, 1.01]))
        assert report.ok
        (delta,) = report.deltas
        assert delta.verdict == "ok"

    def test_threshold_is_inclusive_boundary(self):
        at = compare_history(history([1.0, 1.0 + DEFAULT_THRESHOLD]))
        below = compare_history(history([1.0, 1.0 + DEFAULT_THRESHOLD - 0.01]))
        assert not at.ok
        assert below.ok

    def test_improvement_reported_but_never_fails(self):
        report = compare_history(history([1.0, 1.0, 0.5]))
        assert report.ok
        assert report.deltas[0].verdict == "improved"

    def test_first_entry_has_no_baseline(self):
        report = compare_history(history([1.0]))
        assert report.ok
        (delta,) = report.deltas
        assert delta.verdict == "no-baseline"
        assert delta.baseline is None

    def test_baseline_is_median_of_trailing_window(self):
        # window=3 over [., 2.0, 2.0, 10.0] -> median 2.0; the old 1.0
        # entries have scrolled out of the window.
        report = compare_history(history([1.0, 1.0, 2.0, 2.0, 2.0, 2.6]),
                                 window=3)
        (delta,) = report.deltas
        assert delta.baseline == pytest.approx(2.0)
        assert delta.verdict == "regression"

    def test_mismatched_tags_do_not_pollute_baseline(self):
        other = {"platform": "other-box", "threads": 8}
        entries = (history([0.1, 0.1], tags=other)  # fast foreign machine
                   + history([1.0, 1.0, 1.05]))
        report = compare_history(entries)
        (delta,) = report.deltas
        # Baseline comes only from same-tag entries; 1.05 vs 1.0 is ok,
        # whereas mixing in the 0.1s would have flagged it.
        assert delta.baseline == pytest.approx(1.0)
        assert delta.verdict == "ok"

    def test_metric_missing_from_newest_entry_still_judged(self):
        entries = history([1.0, 1.0, 1.3]) + [entry({"kernels/other": 2.0})]
        report = compare_history(entries)
        verdicts = {d.name: d.verdict for d in report.deltas}
        assert verdicts["kernels/conv2d_fwd"] == "regression"
        assert verdicts["kernels/other"] == "no-baseline"


# ----------------------------------------------------------------------
# History file round trip
# ----------------------------------------------------------------------
class TestHistoryFile:
    def test_append_and_check_round_trip(self, tmp_path):
        path = tmp_path / HISTORY_FILENAME
        for value in (1.0, 1.0, 1.0):
            append_history(path, "kernels", {"kernels/conv2d_fwd": value},
                           TAGS)
        append_history(path, "kernels", {"kernels/conv2d_fwd": 1.5}, TAGS)
        report = check_regressions(path)
        assert not report.ok
        assert report.regressions[0].ratio == pytest.approx(1.5)

    def test_truncated_history_line_is_skipped(self, tmp_path):
        path = tmp_path / HISTORY_FILENAME
        append_history(path, "kernels", {"m": 1.0}, TAGS)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"section": "kernels", "metr')  # killed mid-append
        entries, skipped = load_history(path)
        assert len(entries) == 1
        assert skipped == 1
        report = check_regressions(path)
        assert report.skipped_lines == 1

    def test_missing_history_is_empty_not_fatal(self, tmp_path):
        report = check_regressions(tmp_path / "nope.jsonl")
        assert report.ok
        assert report.deltas == []

    def test_real_repo_history_passes(self):
        # The committed seed history must never itself flag a regression.
        report = check_regressions()
        assert report.ok, [d.name for d in report.regressions]

    def test_retired_metrics_are_listed_not_judged(self, tmp_path):
        path = tmp_path / HISTORY_FILENAME
        for value in (1.0, 1.0, 2.0):
            # A section no bench writes any more ...
            append_history(path, "fd_fuse", {"fd_fuse/segment": value}, TAGS)
            # ... and a kernel the newest kernels row no longer carries.
            append_history(path, "kernels", {"kernels/max_pool": value,
                                              "kernels/conv2d_fwd": 1.0}, TAGS)
        append_history(path, "kernels", {"kernels/conv2d_fwd": 1.0}, TAGS)
        report = check_regressions(path)
        assert report.ok
        assert [d.name for d in report.deltas] == ["kernels/conv2d_fwd"]
        assert report.retired == ["fd_fuse/segment", "kernels/max_pool"]
        assert "kernels/max_pool" in format_regress_report(report)

    def test_real_repo_history_judges_live_metrics_only(self):
        report = check_regressions()
        assert all(d.name.split("/")[0] in ("kernels", "condense_step")
                   for d in report.deltas)
        # Deleted in an engine cleanup; its old rows must not read "improved".
        assert "kernels/max_pool2d_fwd_bwd" in report.retired


# ----------------------------------------------------------------------
# metrics_from_snapshot / rendering
# ----------------------------------------------------------------------
class TestMetricsAndFormat:
    def test_section_filter(self):
        data = {"kernels": {"cases": {"a": {"fast_s": 1.0}}},
                "condense_step": {"fast_s": 2.0}}
        assert metrics_from_snapshot(data, sections=("kernels",)) == {
            "kernels/a": 1.0}
        assert metrics_from_snapshot(data) == {"kernels/a": 1.0,
                                               "condense_step": 2.0}

    def test_report_renders_table_and_summary(self):
        report = compare_history(history([1.0, 1.0, 1.5]))
        text = format_regress_report(report, history_path="h.jsonl")
        assert "Bench-history regression check" in text
        assert "kernels/conv2d_fwd" in text
        assert "regression" in text
        assert "1 regression(s)" in text

    def test_empty_report_mentions_missing_history(self):
        text = format_regress_report(compare_history([]))
        assert "no bench history yet" in text


class TestByteMetrics:
    def test_condense_step_byte_gauges_extracted(self):
        data = {"condense_step": {"fast_s": 2.0,
                                  "peak_traced_bytes": 1048576}}
        assert metrics_from_snapshot(data) == {
            "condense_step": 2.0,
            "condense_step/peak_traced_bytes": 1048576.0,
        }

    def test_condense_step_cases_extracted(self):
        data = {"condense_step": {"fast_s": 2.0, "cases": {
            "stream_segment": {"fast_s": 0.5, "active_classes": [3, 7]}}}}
        assert metrics_from_snapshot(data) == {
            "condense_step": 2.0,
            "condense_step/stream_segment": 0.5,
        }

    def test_report_renders_bytes_human_readably(self):
        entries = [
            {"tags": {}, "metrics": {
                "condense_step": 1.0,
                "condense_step/peak_traced_bytes": 1048576.0}},
            {"tags": {}, "metrics": {
                "condense_step": 1.0,
                "condense_step/peak_traced_bytes": 2 * 1048576.0}},
        ]
        report = compare_history(entries)
        text = format_regress_report(report)
        assert "1000.00ms" in text          # timings stay milliseconds
        assert "2.0MiB" in text and "1.0MiB" in text
        # Byte gauges are judged by the same threshold rule as timings.
        assert any(d.name.endswith("peak_traced_bytes")
                   and d.verdict == "regression" for d in report.deltas)



def probed(values, probes, name="kernels/conv2d_fwd"):
    rows = history(values, name=name)
    for row, probe in zip(rows, probes):
        if probe is not None:
            row["probe_s"] = {name: probe}
    return rows


class TestHostProbe:
    def test_slower_host_is_not_a_regression(self):
        report = compare_history(probed([1.0, 1.0, 1.0, 1.3],
                                        [1.0, 1.0, 1.0, 1.3]))
        assert report.ok
        (delta,) = report.deltas
        assert delta.baseline == pytest.approx(1.3)
        assert delta.verdict == "ok"

    def test_slowdown_on_a_steady_host_is_flagged(self):
        report = compare_history(probed([1.0, 1.0, 1.0, 1.3],
                                        [1.0, 1.0, 1.0, 1.0]))
        assert [d.name for d in report.regressions] == ["kernels/conv2d_fwd"]

    def test_faster_host_does_not_hide_a_slowdown(self):
        # Raw values are flat, but the host became 30 % faster.
        report = compare_history(probed([1.0, 1.0, 1.0, 1.0],
                                        [1.0, 1.0, 1.0, 0.7]))
        assert not report.ok

    def test_timings_with_and_without_probe_are_not_compared(self):
        first_probe = compare_history(probed([1.0, 1.0, 5.0],
                                             [None, None, 1.0]))
        assert [d.verdict for d in first_probe.deltas] == ["no-baseline"]
        unprobed = compare_history(probed([1.0, 1.0, 5.0, 1.0],
                                          [1.0, 1.0, 1.0, None]))
        assert [d.verdict for d in unprobed.deltas] == ["no-baseline"]

    def test_each_timing_is_scaled_by_its_own_probe(self):
        rows = [entry({"kernels/a": 1.0, "kernels/b": 1.0,
                       "condense_step/peak_traced_bytes": 100.0})
                for _ in range(2)]
        rows[0]["probe_s"] = {"kernels/a": 1.0, "kernels/b": 1.0}
        rows[1]["probe_s"] = {"kernels/a": 1.0, "kernels/b": 0.5}
        rows[1]["metrics"]["condense_step/peak_traced_bytes"] = 130.0
        verdicts = {d.name: d.verdict for d in compare_history(rows).deltas}
        assert verdicts == {"kernels/a": "ok", "kernels/b": "regression",
                            "condense_step/peak_traced_bytes": "regression"}

    def test_bench_rows_carry_their_probes(self, tmp_path):
        snapshot = {
            "kernels": {"cases": {"conv2d_fwd": {"fast_s": 0.01,
                                                 "probe_s": 0.002},
                                  "old_case": {"fast_s": 0.03}}},
            "condense_step": {"fast_s": 0.2, "probe_s": 0.003,
                              "peak_traced_bytes": 1024,
                              "cases": {"stream_segment": {
                                  "fast_s": 0.1, "probe_s": 0.004}}},
        }
        assert probes_from_snapshot(snapshot) == {
            "kernels/conv2d_fwd": 0.002, "condense_step": 0.003,
            "condense_step/stream_segment": 0.004}
        path = tmp_path / HISTORY_FILENAME
        append_history(path, "kernels", {"kernels/conv2d_fwd": 0.01}, TAGS,
                       probes_from_snapshot(snapshot, sections=("kernels",)))
        append_history(path, "kernels", {"kernels/conv2d_fwd": 0.01}, TAGS)
        entries, _ = load_history(path)
        assert entries[0]["probe_s"] == {"kernels/conv2d_fwd": 0.002}
        assert "probe_s" not in entries[1]
