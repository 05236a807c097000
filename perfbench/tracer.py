"""Outside-in span tracer for the stream benchmark.

The tracer never touches the repository's sources: while installed it
replaces the public entry points of each layer (learner segment/retrain,
pseudo-labeling, condensation, buffer decode and selection, the model's
forward/backward, the optimizer step, evaluation and checkpointing) with
timing wrappers, and restores the originals on exit.  Every patch target
is looked up defensively, so a layer that a later change deletes simply
stops producing spans and its metrics read 0.

Spans are kept in memory (one tuple per span plus Chrome trace ``B``/``E``
events) and written out once, when the benchmark ends.  A span opened
while another span of the same name is open on the stack is folded into
the outer one (``Module.__call__`` of a submodule inside the model's
forward, a delegating condenser around the real one), so each layer's
time is counted once.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["Tracer", "LAYER_SPANS"]

# (span name, kind, module, dotted attribute).  ``family`` targets patch a
# method on the class and on every loaded subclass that defines it itself;
# ``attr`` targets patch one module-level binding.
LAYER_SPANS: tuple[tuple[str, str, str, str], ...] = (
    ("segment", "family", "repro.core.learner",
     "OnDeviceLearner.observe_segment"),
    ("training.retrain", "family", "repro.core.learner",
     "OnDeviceLearner.update_model"),
    ("pseudo_label", "family", "repro.core.pseudo_label",
     "MajorityVotePseudoLabeler.label_segment"),
    ("pseudo_label", "attr", "repro.core.replay", "predict_with_confidence"),
    ("condensation", "family", "repro.condensation.base",
     "CondensationMethod.condense"),
    ("buffer.decode", "family", "repro.buffer.factorized",
     "FactorizedSyntheticBuffer.decode"),
    ("buffer.encode_grad", "family", "repro.buffer.factorized",
     "FactorizedSyntheticBuffer.encode_grad"),
    ("buffer.select", "family", "repro.buffer.selection",
     "SelectionStrategy.process_segment"),
    ("nn.forward", "family", "repro.nn.layers", "Module.__call__"),
    ("nn.backward", "family", "repro.nn.tensor", "Tensor.backward"),
    ("training.step", "family", "repro.nn.optim", "SGD.step"),
    ("training.eval", "attr", "repro.core.learner", "evaluate_accuracy"),
    ("persist.checkpoint", "attr", "repro.persist", "save_learner_checkpoint"),
)

# Cap on buffered Chrome trace events; aggregates keep counting past it.
MAX_TRACE_EVENTS = 600_000


def _resolve(module: str, dotted: str):
    """``(owner, attribute name)`` of a patch target, or ``None`` if gone."""
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def _family(cls: type, attr: str) -> list[type]:
    """``cls`` and every loaded subclass that defines ``attr`` itself."""
    seen, out, todo = set(), [], [cls]
    while todo:
        c = todo.pop()
        if c in seen:
            continue
        seen.add(c)
        if attr in vars(c):
            out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _pseudo_label_counts(tracer: "Tracer", args, out) -> None:
    keep = getattr(out, "keep", None)
    if keep is not None:  # majority-vote result: filtered samples
        tracer.add("pseudo_label.kept", int(keep.sum()))
        tracer.add("pseudo_label.total", int(keep.size))
    elif len(args) > 1:  # plain prediction: every sample is kept
        tracer.add("pseudo_label.kept", len(args[1]))
        tracer.add("pseudo_label.total", len(args[1]))


def _condense_counts(tracer: "Tracer", args, out) -> None:
    tracer.add("condensation.passes",
               int(getattr(out, "forward_backward_passes", 0)))


def _checkpoint_counts(tracer: "Tracer", args, out) -> None:
    try:
        base = os.fspath(out)
        tracer.add("persist.checkpoint_bytes",
                   sum(os.path.getsize(base + suffix)
                       for suffix in (".npz", ".json")
                       if os.path.exists(base + suffix)))
    except TypeError:
        pass


_AFTER: dict[str, Callable] = {
    "pseudo_label": _pseudo_label_counts,
    "condensation": _condense_counts,
    "persist.checkpoint": _checkpoint_counts,
}


class Tracer:
    """Records spans around layer entry points while :attr:`recording`.

    Use as a context manager to install and remove the patches; switch
    :attr:`recording` on only around the part of a run to attribute
    (the harness does so for the learner's stream loop).
    """

    def __init__(self) -> None:
        self.recording = False
        self.lane = 1
        self.events: list[dict] = []
        self.dropped_events = 0
        # Per stream pass: finished spans as (name, parent id, t0, t1, id),
        # and counters filled by the after-hooks.
        self.spans: list[tuple[str, int, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []          # indices into _open_spans
        self._open_spans: list[list] = []
        self._open_names: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Any]] = []
        self._thread = threading.get_ident()
        self._t0 = time.perf_counter()
        self._pid = os.getpid()

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "Tracer":
        for name, kind, module, dotted in LAYER_SPANS:
            target = _resolve(module, dotted)
            if target is None:
                continue
            owner, attr = target
            owners = _family(owner, attr) if kind == "family" else [owner]
            for o in owners:
                original = (vars(o)[attr] if kind == "family"
                            else getattr(o, attr))
                self._patches.append((o, attr, original))
                setattr(o, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if (not tracer.recording or tracer._open_names[name]
                    or threading.get_ident() != tracer._thread):
                return fn(*args, **kwargs)
            tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(tracer, args, out)
            return out
        return traced

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> None:
        """Start a span (use :meth:`close` to end it, LIFO)."""
        parent = self._stack[-1] if self._stack else -1
        t = time.perf_counter()
        # An event is kept only with its partner: the cap is checked at B.
        emit = len(self.events) < MAX_TRACE_EVENTS
        if emit:
            self._event("B", name, t)
        else:
            self.dropped_events += 2
        self._open_spans.append([name, parent, t, emit])
        self._stack.append(len(self._open_spans) - 1)
        self._open_names[name] += 1

    def close(self) -> None:
        idx = self._stack.pop()
        name, parent, t0, emit = self._open_spans[idx]
        t1 = time.perf_counter()
        self._open_names[name] -= 1
        if emit:
            self._event("E", name, t1)
        # The finished span keeps the open-span index as its identity, so
        # children (closed first) can point at it.
        self.spans.append((name, parent, t0, t1, idx))

    def add(self, counter: str, value: int = 1) -> None:
        self.counts[counter] += value

    def _event(self, ph: str, name: str, t: float) -> None:
        self.events.append({"name": name, "ph": ph, "pid": self._pid,
                            "tid": self.lane,
                            "ts": round((t - self._t0) * 1e6, 3)})

    # -- per stream pass ------------------------------------------------
    def take_pass(self) -> dict:
        """Aggregate and clear the spans/counters of the finished pass.

        Returns ``{"spans": {name: {"calls", "total_s", "self_s",
        "durations"}}, "counts": {...}, "steps_in_retrain": int}``.
        """
        if self._stack:
            raise RuntimeError("take_pass with open spans")
        by_open: dict[int, tuple] = {s[4]: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for name, parent, t0, t1, idx in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        spans: dict[str, dict] = {}
        steps_in_retrain = 0
        for name, parent, t0, t1, idx in self.spans:
            agg = spans.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "durations": []})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_time[idx]
            agg["durations"].append(t1 - t0)
            if name == "training.step":
                p = parent
                while p >= 0:
                    if by_open[p][0] == "training.retrain":
                        steps_in_retrain += 1
                        break
                    p = by_open[p][1]
        out = {"spans": spans, "counts": dict(self.counts),
               "steps_in_retrain": steps_in_retrain}
        self.spans = []
        self.counts = defaultdict(int)
        self._open_spans = []
        return out

    # -- export -----------------------------------------------------------
    def chrome_trace(self, label: str) -> dict:
        """The recorded events as a Chrome trace-event document."""
        meta = [{"name": "process_name", "ph": "M", "pid": self._pid,
                 "tid": 0, "args": {"name": label}}]
        for lane in sorted({e["tid"] for e in self.events}):
            meta.append({"name": "thread_name", "ph": "M", "pid": self._pid,
                         "tid": lane,
                         "args": {"name": f"traced stream pass {lane}"}})
        return {"traceEvents": meta + self.events, "displayTimeUnit": "ms",
                "otherData": {"dropped_events": self.dropped_events}}

    def write(self, path: str, label: str) -> dict:
        doc = self.chrome_trace(label)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return doc
