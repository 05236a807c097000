"""Stream-pass runner, segment clock and correctness gate of the benchmark.

One :class:`StreamBench` runs one workload in the current process:

1. **Set-up**, timed several times: generate the dataset, pre-train the
   deployed model (``prepare_experiment``), then build the buffer and
   condense it offline inside ``run_method`` until the learner is ready
   for segment 0.
2. **Warm-up**: one untimed stream pass that pays the one-time probes and
   cache set-up.
3. **Timed stream passes** until the run's seconds are spent.  Each pass
   replays one of :data:`SUBSEEDS` streams derived from the workload seed,
   cycling through them, so every stream is seen at least once and each
   repeat must reproduce its first outcome exactly.

The clock sits outside the program: ``OnDeviceLearner.run`` is wrapped for
the duration of the benchmark, and on entry the wrapper times the
learner's own ``observe_segment`` and ``update_model`` from outside.
Nothing inside the repository is modified.

**What the clock reads.**  On a shared host, wall times of runs a few
minutes apart differ by more than a program change worth catching, for
two reasons, and the figures correct for both:

* A thread of the intra-op pool waits whenever the host gives its core to
  someone else, so a multi-threaded workload's wall time measures the
  host's scheduler.  Every timing is therefore the process's CPU time
  (``time.process_time``, all threads): the work the program did, waits
  excluded.  With one thread and no steal it equals wall time.
* The host's speed changes by tens of per cent over minutes, and every
  layer slows with it.  After every timed segment and retrain of an
  untraced pass, and around every set-up, the benchmark runs
  :func:`calibrate`, a fixed numpy + Python probe that uses no repository
  code.  Each timing is scaled by ``NOMINAL_PROBE_S`` over the median of
  the probes nearest to it, i.e. reported as it would read on a host where
  the probe takes ``NOMINAL_PROBE_S``.  The probes' own time is excluded.

The probe runs none of the program's code, so a change to the program
still moves the scaled figures by its full amount.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import obs
from repro.core.learner import OnDeviceLearner
from repro.experiments.common import prepare_experiment, run_method

from .tracer import Tracer
from .workloads import Workload

__all__ = ["StreamBench", "SUBSEEDS", "TRACED_STREAMS", "PREPARE_SEED",
           "MIN_TIMED_SEGMENTS"]

#: Streams per workload seed; final accuracy is their mean.  Stream 0 is
#: the warm-up; a run's timed passes cover the others at least once.
SUBSEEDS = 4
#: Streams a traced run traces at least once; per-layer counts are
#: averaged over them.
TRACED_STREAMS = 3
#: Seed of the offline phase (dataset generation + pre-training).  The
#: deployed model is the device's fixed starting point; the workload seed
#: varies what the device then sees (stream order, learner randomness).
PREPARE_SEED = 0
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Timed segments needed before a run may stop: at least ten samples must
#: lie beyond the reported 90th percentile.
MIN_TIMED_SEGMENTS = 100
#: Seconds :func:`calibrate` takes on the nominal host; timings are
#: reported scaled to this host speed.  A fixed constant: changing it
#: rescales every reported time.
NOMINAL_PROBE_S = 4.0e-3
#: A timing's host-speed factor is the median of the probes within this
#: many events of it, on either side, in the same pass.
PROBE_WINDOW = 5
#: Probes taken on each side of a set-up repetition.
SETUP_PROBES = 3


class _ReadyForSegmentZero(Exception):
    """Raised by the run hook to end a set-up-only repetition."""


@dataclass
class PassRecord:
    """Everything measured in one stream pass."""

    subseed: int
    traced: bool = False
    stop_at_ready: bool = False
    ready_t: float = 0.0
    ready_cpu: float = 0.0
    loop_s: float = 0.0
    loop_cpu_s: float = 0.0
    samples: int = 0
    #: ``(kind, CPU seconds, probe seconds)`` of every segment and retrain
    #: in order; untraced passes only.
    events: list[tuple[str, float, float]] = field(default_factory=list)
    probe_cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    final_acc: float = math.nan
    footprint: int = 0
    num_classes: int = 0
    parallel: dict[str, int] = field(default_factory=dict)
    ledger_high_water: int = 0
    divergence: int = 0
    trace: dict | None = None


def _health_count(kind: str) -> int:
    """Health-monitor incident total of one kind (0 once the monitor is gone).

    ``nonfinite`` incidents (NaN/Inf at a matcher or optimizer hand-off)
    fail the segment.  ``divergence`` incidents come from the monitor's
    EWMA tripwire on the matching loss, which also fires on the ordinary
    loss jump at the first iteration of a segment; they are reported, not
    gated.
    """
    stats = getattr(obs, "health_stats", None)
    return int(stats().get(kind, 0)) if stats else 0


def _parallel_stats() -> dict[str, int]:
    try:
        from repro import parallel
        stats = parallel.stats()
    except (ImportError, AttributeError):
        return {}
    return {k: int(stats.get(k, 0))
            for k in ("sharded_calls", "serial_fallbacks")}


def _finite(learner: OnDeviceLearner) -> bool:
    buffer = getattr(learner, "buffer", None)
    images = getattr(buffer, "images", None)
    if images is not None and not np.isfinite(images).all():
        return False
    return all(np.isfinite(p.data).all() for p in learner.model.parameters())


_PROBE_MAT = np.linspace(-1.0, 1.0, 96 * 96, dtype=np.float32).reshape(96, 96)
_PROBE_MAPS = np.linspace(-1.0, 1.0, 8 * 16 * 16,
                          dtype=np.float32).reshape(8, 16, 16)


def calibrate() -> float:
    """Seconds of a fixed numpy + Python probe that uses no repository code.

    The mix follows the program's: small matmuls, many small-array numpy
    calls, and interpreter work.  It scales the benchmark's timings
    (module notes); on a shared 2-core 2.0 GHz Xeon host it takes 2.9 ms
    in the host's fast phases and 4.5 ms in its slow ones.
    """
    start = time.perf_counter()
    a = _PROBE_MAT
    for _ in range(15):
        a = np.tanh(a @ _PROBE_MAT * np.float32(0.01))
    x = _PROBE_MAPS
    for _ in range(110):
        x = np.maximum(x * np.float32(0.9) + np.float32(0.01), 0.0)
        x = x.reshape(8, 256).T.copy().T.reshape(8, 16, 16)
        x.sum(axis=(1, 2))
    acc = 0
    for i in range(9_000):
        acc += i * i % 7
    return time.perf_counter() - start


def host_factors(probes: list[float]) -> list[float]:
    """Per-event scale to the nominal host speed, from neighbouring probes."""
    k = PROBE_WINDOW
    return [NOMINAL_PROBE_S / statistics.median(probes[max(0, i - k):i + k + 1])
            for i in range(len(probes))]


class StreamBench:
    """Runs one workload's set-up, warm-up and stream passes in-process.

    Use as a context manager: entering wraps ``OnDeviceLearner.run``,
    leaving restores it.  ``tracer``'s patches are installed only for the
    duration of a traced pass, so untraced passes run the bare program.
    """

    def __init__(self, workload: Workload, seed: int, *, profile: str,
                 work_dir: str, tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.seed = int(seed)
        self.profile = profile
        self.tracer = tracer
        self.prepared = None
        self.setup_s: list[float] = []
        self.setup_raw_s: list[float] = []
        self.reference: dict[int, tuple[float, int]] = {}
        self.problems: list[str] = []
        self.passes: list[PassRecord] = []
        self.calib_s: list[float] = []
        self.num_classes = 0
        self._pass: PassRecord | None = None
        self._original_run = None
        self._ckpt_dir = os.path.join(work_dir, f"ckpt-{os.getpid()}")

    # -- hooks ------------------------------------------------------------
    def __enter__(self) -> "StreamBench":
        self._original_run = OnDeviceLearner.__dict__["run"]
        bench = self

        def run(learner, stream, *args, **kwargs):
            return bench._run_hook(learner, stream, *args, **kwargs)

        OnDeviceLearner.run = run
        return self

    def __exit__(self, *exc) -> None:
        OnDeviceLearner.run = self._original_run
        shutil.rmtree(self._ckpt_dir, ignore_errors=True)

    def _run_hook(self, learner, stream, *args, **kwargs):
        rec = self._pass
        rec.ready_t = time.perf_counter()
        rec.ready_cpu = time.process_time()
        if rec.stop_at_ready:
            raise _ReadyForSegmentZero
        rec.num_classes = int(learner.model.num_classes)
        learner.observe_segment = self._timed_segment(
            rec, learner, learner.observe_segment)
        learner.update_model = self._timed_retrain(
            rec, learner, learner.update_model)
        tracer = self.tracer if rec.traced else None
        par_before = _parallel_stats() if tracer else {}
        divergence = _health_count("divergence")
        if tracer:
            tracer.recording = True
            tracer.open("loop")
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            history = self._original_run(learner, stream, *args, **kwargs)
        finally:
            rec.loop_s = time.perf_counter() - start
            rec.loop_cpu_s = time.process_time() - cpu
            if tracer:
                tracer.close()
                tracer.recording = False
        rec.divergence = _health_count("divergence") - divergence
        if tracer:
            after = _parallel_stats()
            rec.parallel = {k: after[k] - par_before.get(k, 0)
                            for k in after}
            ledger = getattr(obs, "default_ledger", None)
            rec.ledger_high_water = int(getattr(ledger, "high_water_bytes", 0))
        self._check_learner(rec, learner)
        return history

    def _timed_segment(self, rec: PassRecord, learner, inner):
        def observe_segment(segment):
            incidents = _health_count("nonfinite")
            start = time.process_time()
            try:
                diag = inner(segment)
            except Exception:
                rec.attempted += 1
                rec.failed += 1
                raise
            cpu_s = time.process_time() - start
            rec.attempted += 1
            rec.samples += len(segment)
            if (_health_count("nonfinite") != incidents
                    or not _finite(learner)):
                rec.failed += 1
                rec.problems.append(f"segment {segment.index}: non-finite "
                                    f"values in matcher, buffer or model")
            self._probe(rec, "segment", cpu_s)
            return diag
        return observe_segment

    def _timed_retrain(self, rec: PassRecord, learner, inner):
        def update_model():
            incidents = _health_count("nonfinite")
            start = time.process_time()
            inner()
            cpu_s = time.process_time() - start
            if (_health_count("nonfinite") != incidents
                    or not _finite(learner)):
                rec.failed += 1
                rec.problems.append("retrain: non-finite values in "
                                    "optimizer or model")
            self._probe(rec, "retrain", cpu_s)
        return update_model

    @staticmethod
    def _probe(rec: PassRecord, kind: str, cpu_s: float) -> None:
        """Host-speed probe after a timed event of an untraced pass."""
        if rec.traced:
            return
        start = time.process_time()
        rec.events.append((kind, cpu_s, calibrate()))
        rec.probe_cpu_s += time.process_time() - start

    def _check_learner(self, rec: PassRecord, learner) -> None:
        """Byte accounting: footprint = buffer bytes + parameter bytes."""
        foot = int(learner.memory_footprint()["total_bytes"])
        buffer = getattr(learner, "buffer", None)
        expected = int(getattr(buffer, "memory_bytes", 0)) + sum(
            int(p.data.nbytes) for p in learner.model.parameters())
        if foot != expected:
            rec.problems.append(f"footprint {foot} != buffer + parameter "
                                f"bytes {expected}")
        rec.footprint = foot

    # -- passes -------------------------------------------------------------
    def stream_seed(self, subseed: int) -> int:
        return self.seed * 1000 + subseed

    def _run_method(self, rec: PassRecord):
        w = self.workload
        kwargs: dict[str, Any] = {"seed": self.stream_seed(rec.subseed)}
        if w.decode_factor > 1:
            kwargs["decode_factor"] = w.decode_factor
        if w.checkpoint_every:
            shutil.rmtree(self._ckpt_dir, ignore_errors=True)
            kwargs.update(checkpoint_every=w.checkpoint_every,
                          checkpoint_dir=self._ckpt_dir)
        self._pass = rec
        try:
            return run_method(self.prepared, w.method, w.ipc, **kwargs)
        finally:
            self._pass = None

    def set_up(self) -> float:
        """One cold set-up until the learner is ready for segment 0."""
        try:
            from repro.data.registry import clear_dataset_cache
            clear_dataset_cache()
        except ImportError:
            pass
        probes = [calibrate() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        cpu = time.process_time()
        self.prepared = prepare_experiment(self.workload.dataset, self.profile,
                                           seed=PREPARE_SEED, use_cache=False)
        rec = PassRecord(subseed=0, stop_at_ready=True)
        try:
            self._run_method(rec)
        except _ReadyForSegmentZero:
            pass
        else:
            raise RuntimeError("run hook did not fire: OnDeviceLearner.run "
                               "was not reached")
        elapsed = rec.ready_t - start
        probes += [calibrate() for _ in range(SETUP_PROBES)]
        self.calib_s += probes
        self.setup_raw_s.append(elapsed)
        self.setup_s.append((rec.ready_cpu - cpu) * NOMINAL_PROBE_S
                            / statistics.median(probes))
        return elapsed

    def stream_pass(self, subseed: int, *, traced: bool = False) -> PassRecord:
        """One full stream pass; a program exception ends it as a problem."""
        rec = PassRecord(subseed=subseed, traced=traced)
        try:
            if traced:
                self.tracer.lane += 1
                with self.tracer:
                    result = self._run_method(rec)
            else:
                result = self._run_method(rec)
        except Exception as exc:  # a failing segment ends the pass
            traceback.print_exc(file=sys.stderr)
            rec.problems.append(f"pass raised {type(exc).__name__}: {exc}")
            if rec.attempted == 0:
                rec.attempted = rec.failed = 1
            self.problems.extend(rec.problems)
            return rec
        finally:
            self.passes.append(rec)
            if traced:
                rec.trace = self.tracer.take_pass()
        rec.final_acc = float(result.final_accuracy)
        self.num_classes = rec.num_classes
        outcome = (rec.final_acc, rec.footprint)
        first = self.reference.setdefault(subseed, outcome)
        if first != outcome:
            rec.problems.append(f"stream {subseed}: outcome {outcome} differs "
                                f"from its first pass {first}")
        self.problems.extend(rec.problems)
        return rec

    def run_timed(self, seconds: float, deadline: float) -> list[PassRecord]:
        """Untraced passes over streams 1, 2, ... until ``seconds`` are spent.

        The run also continues until every stream has been seen and at
        least :data:`MIN_TIMED_SEGMENTS` segments were timed; no pass
        starts that would end after the ``deadline`` (a ``perf_counter``
        value).
        """
        timed: list[PassRecord] = []
        start = time.perf_counter()
        while not self.problems:
            rec = self.stream_pass((len(timed) + 1) % SUBSEEDS)
            timed.append(rec)
            self.calib_s.append(calibrate())
            covered = (len(self.reference) >= SUBSEEDS
                       and sum(r.attempted for r in timed)
                       >= MIN_TIMED_SEGMENTS)
            if self._finished(start, seconds, covered, rec.loop_s, deadline):
                break
        return timed

    def run_traced(self, seconds: float, deadline: float
                   ) -> tuple[list[PassRecord], float]:
        """Traced passes over streams 0, 1, ... until ``seconds`` are spent.

        Covers streams 0 .. :data:`TRACED_STREAMS` - 1 at least once.  One
        untraced pass of stream 0 runs first; returns the traced passes and
        the tracing overhead: stream 0's traced loop CPU time over its
        untraced one (probes excluded), minus one.
        """
        plain = self.stream_pass(0)
        traced: list[PassRecord] = []
        start = time.perf_counter()
        while not self.problems:
            probe = self.stream_pass(len(traced) % TRACED_STREAMS, traced=True)
            traced.append(probe)
            self.calib_s.append(calibrate())
            if self._finished(start, seconds, len(traced) >= TRACED_STREAMS,
                              probe.loop_s, deadline):
                break
        plain_s = plain.loop_cpu_s - plain.probe_cpu_s
        overhead = (traced[0].loop_cpu_s / plain_s - 1.0
                    if traced and plain_s > 0 else 0.0)
        return traced, overhead

    def _finished(self, start: float, seconds: float, covered: bool,
                  last_s: float, deadline: float) -> bool:
        now = time.perf_counter()
        if now - start >= seconds and covered:
            return True
        if now + last_s > deadline:
            if not covered:
                self.problems.append("pass deadline hit before the run "
                                     "covered its streams")
            return True
        return False

    def final_acc(self) -> float:
        """Mean final accuracy over the seed's streams, gated above chance.

        The ``micro`` profile is a plumbing check whose pre-trained model
        is itself at chance, so the gate applies to the other profiles.
        """
        accs = [self.reference[k][0] for k in sorted(self.reference)]
        mean = float(np.mean(accs))
        chance = 1.0 / max(self.num_classes, 1)
        if self.profile != "micro" and not mean > chance:
            self.problems.append(f"final accuracy {mean:.4f} over "
                                 f"{len(accs)} streams not above chance "
                                 f"{chance:.4f}")
        return mean


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def scaled_times(rec: PassRecord) -> tuple[list[float], list[float], float]:
    """One untraced pass's segment times, retrain times and loop time, in
    CPU seconds at the nominal host speed (module notes), probes excluded."""
    probes = [probe for _, _, probe in rec.events]
    segments, retrains = [], []
    for (kind, cpu_s, _), factor in zip(rec.events, host_factors(probes)):
        (segments if kind == "segment" else retrains).append(cpu_s * factor)
    # Loop time outside segments and retrains (final evaluation, stream
    # bookkeeping) is scaled by the pass's median probe.
    rest = (rec.loop_cpu_s - rec.probe_cpu_s
            - sum(cpu_s for _, cpu_s, _ in rec.events))
    rest *= NOMINAL_PROBE_S / statistics.median(probes)
    return segments, retrains, sum(segments) + sum(retrains) + rest


def end_to_end_metrics(bench: StreamBench, timed: list[PassRecord]) -> dict:
    """The untraced end-to-end figures of one run."""
    scaled = [scaled_times(rec) for rec in timed]
    segments = [s for seg, _, _ in scaled for s in seg]
    retrains = [s for _, ret, _ in scaled for s in ret]
    # Throughput of one pass over each timed stream, each stream's loop time
    # taken as its median over repeats: which streams a run happened to
    # repeat does not shift the mix.
    by_stream: dict[int, list[tuple[int, float]]] = {}
    for rec, (_, _, loop_s) in zip(timed, scaled):
        by_stream.setdefault(rec.subseed, []).append((rec.samples, loop_s))
    samples = sum(runs[0][0] for runs in by_stream.values())
    loop_s = sum(statistics.median(s for _, s in runs)
                 for runs in by_stream.values())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(bench.setup_s), "s"),
        "samples_per_s": (samples / loop_s, "samples/s"),
        "segment_ms_p50": (_pct(segments, 50) * 1e3, "ms"),
        "segment_ms_p90": (_pct(segments, 90) * 1e3, "ms"),
        "retrain_ms_p50": (_pct(retrains, 50) * 1e3, "ms"),
        "final_acc": (bench.final_acc(), "fraction"),
        "footprint_bytes": (bench.reference[0][1], "bytes"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }


def per_layer_metrics(traced: list[PassRecord], overhead: float,
                      calib_s: list[float]) -> tuple[dict, list[tuple]]:
    """Per-layer figures of the traced passes, and the self-time table.

    Counts are per stream pass, averaged over the seed's streams (each
    stream's first traced pass), so they repeat exactly for one seed.
    Times are per stream pass (mean over traced passes) unless named
    ``_p50`` (median per call) or ``ms_per_*`` (time per unit of work).
    """
    n = max(len(traced), 1)
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for rec in traced:
        for name, agg in rec.trace["spans"].items():
            tot = spans.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "durations": []})
            for key in ("calls", "total_s", "self_s"):
                tot[key] += agg[key]
            tot["durations"].extend(agg["durations"])
        for name, value in rec.trace["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def per_stream(get) -> float:
        first: dict[int, float] = {}
        for rec in traced:
            first.setdefault(rec.subseed, get(rec))
        return float(np.mean(list(first.values()))) if first else 0.0

    def span(name: str) -> dict:
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "durations": []})

    def calls(name: str):
        return lambda rec: rec.trace["spans"].get(name, {}).get("calls", 0)

    def p50_ms(name: str) -> float:
        d = span(name)["durations"]
        return _pct(d, 50) * 1e3 if d else 0.0

    def ms_per_pass(name: str, key: str = "total_s") -> float:
        return span(name)[key] * 1e3 / n

    cond_passes = counts.get("condensation.passes", 0)
    steps = sum(rec.trace["steps_in_retrain"] for rec in traced)
    kept_total = counts.get("pseudo_label.total", 0)
    metrics = {
        "pseudo_label.ms_p50": (p50_ms("pseudo_label"), "ms"),
        "pseudo_label.kept_frac": (
            counts.get("pseudo_label.kept", 0) / kept_total
            if kept_total else 0.0, "fraction"),
        "condensation.calls": (per_stream(calls("condensation")), "count"),
        "condensation.ms_p50": (p50_ms("condensation"), "ms"),
        "condensation.passes": (per_stream(
            lambda rec: rec.trace["counts"].get("condensation.passes", 0)),
            "count"),
        "condensation.ms_per_pass": (
            span("condensation")["total_s"] * 1e3 / cond_passes
            if cond_passes else 0.0, "ms"),
        "condensation.self_ms": (ms_per_pass("condensation", "self_s"), "ms"),
        "nn.forward_calls": (per_stream(calls("nn.forward")), "count"),
        "nn.forward_ms": (ms_per_pass("nn.forward"), "ms"),
        "nn.backward_calls": (per_stream(calls("nn.backward")), "count"),
        "nn.backward_ms": (ms_per_pass("nn.backward"), "ms"),
        "buffer.decode_ms": (ms_per_pass("buffer.decode"), "ms"),
        "buffer.encode_grad_ms": (ms_per_pass("buffer.encode_grad"), "ms"),
        "buffer.select_ms_p50": (p50_ms("buffer.select"), "ms"),
        "training.retrain_steps": (per_stream(
            lambda rec: rec.trace["steps_in_retrain"]), "count"),
        "training.ms_per_step": (
            span("training.retrain")["total_s"] * 1e3 / steps
            if steps else 0.0, "ms"),
        "training.eval_ms": (ms_per_pass("training.eval"), "ms"),
        "parallel.sharded_calls": (per_stream(
            lambda rec: rec.parallel.get("sharded_calls", 0)), "count"),
        "parallel.serial_fallbacks": (per_stream(
            lambda rec: rec.parallel.get("serial_fallbacks", 0)), "count"),
        "persist.checkpoint_ms": (ms_per_pass("persist.checkpoint"), "ms"),
        "persist.checkpoint_bytes": (per_stream(
            lambda rec: rec.trace["counts"].get("persist.checkpoint_bytes",
                                                0)), "bytes"),
        "health.divergence_incidents": (per_stream(
            lambda rec: rec.divergence), "count"),
        "memory.ledger_high_water_bytes": (
            float(max(rec.ledger_high_water for rec in traced)), "bytes"),
        "host.calib_ms": (statistics.median(calib_s) * 1e3, "ms"),
        "trace.overhead_frac": (overhead, "fraction"),
    }
    loop_total = span("loop")["total_s"]
    table = sorted(((name, agg["self_s"], agg["self_s"] / loop_total)
                    for name, agg in spans.items()),
                   key=lambda row: -row[1])
    return metrics, table
