"""Fig. 4: hyper-parameter analyses.

* **Fig. 4a** — sweep the majority-voting threshold ``m`` and record (i) the
  fraction of stream data retained after filtering, (ii) the accuracy of
  the retained pseudo-labels, and (iii) the final model accuracy.  Expected
  shape: retention falls and label accuracy rises with ``m``; model
  accuracy peaks at a moderate threshold (paper: m = 0.4).
* **Fig. 4b** — sweep the feature-discrimination weight ``alpha`` on the
  CIFAR-100-like dataset at IpC in {5, 10}.  Expected shape: accuracy
  improves from alpha=0 up to ~0.1 and degrades for large alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..utils.metrics import mean_and_std
from .common import MethodResult
from .grid import run_grid
from .reporting import format_table, format_trials

__all__ = ["Fig4aPoint", "Fig4aResult", "run_fig4a", "format_fig4a",
           "Fig4bResult", "run_fig4b", "format_fig4b",
           "DEFAULT_THRESHOLDS", "DEFAULT_ALPHAS"]

DEFAULT_THRESHOLDS = (0.0, 0.2, 0.4, 0.6, 0.8)
DEFAULT_ALPHAS = (0.0, 0.001, 0.01, 0.1, 0.5, 1.0)


@dataclass
class Fig4aPoint:
    """Per-seed metrics at one filter threshold."""

    threshold: float
    retained_fraction: list[float]
    pseudo_label_accuracy: list[float]
    model_accuracy: list[float]


@dataclass
class Fig4aResult:
    """The three Fig. 4a curves."""

    dataset: str
    points: list[Fig4aPoint] = field(default_factory=list)

    @property
    def best_threshold(self) -> float:
        return max(self.points,
                   key=lambda p: mean_and_std(p.model_accuracy)[0]).threshold


def _retention(run: MethodResult) -> tuple[float, float]:
    """A run's mean retained fraction and retained pseudo-label accuracy."""
    retained = [d["retained_fraction"] for d in run.history.diagnostics
                if "retained_fraction" in d]
    label_acc = [d["retained_label_accuracy"] for d in run.history.diagnostics
                 if "retained_label_accuracy" in d
                 and not np.isnan(d["retained_label_accuracy"])]
    return (float(np.mean(retained)) if retained else 0.0,
            float(np.mean(label_acc)) if label_acc else 0.0)


def run_fig4a(*, dataset: str = "core50", ipc: int = 10,
              thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
              profile: str = "smoke", **grid) -> Fig4aResult:
    """Sweep the majority-voting threshold ``m``; ``grid`` (``seeds``,
    ``jobs``, ``checkpoint_dir``, ``resume``, ``progress``) goes to
    :func:`~repro.experiments.grid.run_grid`."""
    result = Fig4aResult(dataset=dataset)
    configs = [{"method": "deco", "ipc": ipc, "labeler_threshold": float(m)}
               for m in thresholds]
    runs = run_grid(dataset, profile, configs, label="fig4a", **grid)
    for m, seed_runs in zip(thresholds, runs):
        retained, label_acc = zip(*map(_retention, seed_runs))
        result.points.append(Fig4aPoint(
            threshold=float(m), retained_fraction=list(retained),
            pseudo_label_accuracy=list(label_acc),
            model_accuracy=[run.final_accuracy for run in seed_runs]))
    return result


def format_fig4a(result: Fig4aResult) -> str:
    headers = ["m", "data retained", "pseudo-label acc", "model acc"]
    rows = [[f"{p.threshold:.1f}", format_trials(p.retained_fraction),
             format_trials(p.pseudo_label_accuracy),
             format_trials(p.model_accuracy)]
            for p in result.points]
    return format_table(headers, rows,
                        title=f"Fig. 4a: filter threshold sweep on "
                              f"{result.dataset} "
                              f"(best m = {result.best_threshold:.1f})")


@dataclass
class Fig4bResult:
    """Per-seed accuracy per (alpha, ipc)."""

    dataset: str
    alphas: tuple[float, ...] = ()
    ipcs: tuple[int, ...] = ()
    accuracy: dict[tuple[float, int], list[float]] = field(default_factory=dict)

    def best_alpha(self, ipc: int) -> float:
        return max(self.alphas,
                   key=lambda a: mean_and_std(self.accuracy[(a, ipc)])[0])


def run_fig4b(*, dataset: str = "cifar100",
              alphas: Sequence[float] = DEFAULT_ALPHAS,
              ipcs: Sequence[int] = (5, 10),
              profile: str = "smoke", **grid) -> Fig4bResult:
    """Sweep the feature-discrimination weight ``alpha``; ``grid``
    (``seeds``, ``jobs``, ``checkpoint_dir``, ``resume``, ``progress``)
    goes to :func:`~repro.experiments.grid.run_grid`."""
    result = Fig4bResult(dataset=dataset, alphas=tuple(alphas),
                         ipcs=tuple(ipcs))
    keys = [(float(alpha), ipc) for ipc in ipcs for alpha in alphas]
    configs = [{"method": "deco", "ipc": ipc,
                "condenser_kwargs": {"alpha": alpha}} for alpha, ipc in keys]
    runs = run_grid(dataset, profile, configs, label="fig4b", **grid)
    for key, seed_runs in zip(keys, runs):
        result.accuracy[key] = [run.final_accuracy for run in seed_runs]
    return result


def format_fig4b(result: Fig4bResult) -> str:
    headers = ["alpha"] + [f"IpC={ipc}" for ipc in result.ipcs]
    rows = []
    for alpha in result.alphas:
        row = [f"{alpha:g}"]
        for ipc in result.ipcs:
            row.append(format_trials(result.accuracy[(alpha, ipc)]))
        rows.append(row)
    best = ", ".join(f"IpC={ipc}: alpha={result.best_alpha(ipc):g}"
                     for ipc in result.ipcs)
    return format_table(headers, rows,
                        title=f"Fig. 4b: alpha sweep on {result.dataset} "
                              f"(best {best})")
