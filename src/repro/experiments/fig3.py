"""Fig. 3: learning curves (accuracy vs. processed inputs).

Runs DECO against the two most competitive baselines (FIFO and
Selective-BP) at IpC=10 on CORe50-like and ImageNet-10-like streams,
evaluating every few segments; with several seeds each curve is the
per-point mean over them.  The reproduced shapes: DECO's curve
dominates throughout, reaches the baselines' final accuracy with a fraction
of the data, and is smoother (lower step-to-step variation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..utils.metrics import mean_and_std
from .grid import run_grid
from .reporting import format_series

__all__ = ["LearningCurve", "Fig3Result", "run_fig3", "format_fig3",
           "curve_smoothness", "data_to_reach"]

DEFAULT_METHODS = ("fifo", "selective_bp", "deco")


@dataclass
class LearningCurve:
    """One method's accuracy trace over the stream (mean over seeds)."""

    method: str
    samples_seen: list[int]
    accuracy: list[float]

    @property
    def final_accuracy(self) -> float:
        return self.accuracy[-1]


def curve_smoothness(curve: LearningCurve) -> float:
    """Mean absolute step-to-step accuracy change (lower = smoother)."""
    acc = np.asarray(curve.accuracy)
    if acc.size < 2:
        return 0.0
    return float(np.abs(np.diff(acc)).mean())


def data_to_reach(curve: LearningCurve, target: float) -> int | None:
    """Processed inputs needed to first reach ``target`` accuracy."""
    for samples, acc in zip(curve.samples_seen, curve.accuracy):
        if acc >= target:
            return samples
    return None


@dataclass
class Fig3Result:
    """Curves per (dataset, method)."""

    curves: dict[tuple[str, str], LearningCurve] = field(default_factory=dict)
    datasets: tuple[str, ...] = ()
    methods: tuple[str, ...] = ()
    ipc: int = 10

    def curve(self, dataset: str, method: str) -> LearningCurve:
        return self.curves[(dataset, method)]


def run_fig3(*, datasets: Sequence[str] = ("core50", "imagenet10"),
             methods: Sequence[str] = DEFAULT_METHODS, ipc: int = 10,
             profile: str = "smoke", eval_every: int = 5,
             **grid) -> Fig3Result:
    """Regenerate the Fig. 3 learning curves, one grid per dataset;
    ``grid`` (``seeds``, ``jobs``, ``checkpoint_dir``, ``resume``,
    ``progress``) goes to :func:`~repro.experiments.grid.run_grid`."""
    result = Fig3Result(datasets=tuple(datasets), methods=tuple(methods),
                        ipc=ipc)
    configs = [{"method": method, "ipc": ipc, "eval_every": eval_every}
               for method in methods]
    for dataset in datasets:
        runs = run_grid(dataset, profile, configs, label="fig3", **grid)
        for method, seed_runs in zip(methods, runs):
            samples = [list(run.history.samples_seen) for run in seed_runs]
            if any(s != samples[0] for s in samples):
                raise ValueError(f"fig3 {dataset}/{method}: the seeds' curves "
                                 f"evaluate at different samples_seen and "
                                 f"cannot be averaged")
            accuracy = [mean_and_std(point)[0] for point in
                        zip(*(run.history.accuracy for run in seed_runs))]
            result.curves[(dataset, method)] = LearningCurve(
                method, samples[0], accuracy)
    return result


def format_fig3(result: Fig3Result) -> str:
    """Render each curve as an (inputs -> accuracy) series."""
    blocks = []
    for dataset in result.datasets:
        for method in result.methods:
            curve = result.curve(dataset, method)
            blocks.append(format_series(
                f"Fig. 3 {dataset} / {method} (IpC={result.ipc}, "
                f"smoothness={curve_smoothness(curve):.4f})",
                curve.samples_seen, curve.accuracy,
                x_label="inputs", y_label="accuracy"))
    return "\n\n".join(blocks)
