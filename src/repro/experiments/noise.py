"""Label-noise robustness: what feature discrimination is *for*.

§III-D argues that incorrect pseudo-labels contaminate the per-class
synthetic images and that the feature-discrimination loss (Eq. 8) restores
class purity.  The paper tests this indirectly (Fig. 4b's alpha sweep);
this experiment tests it directly by injecting *controlled* label noise
into the pseudo-labels — flipping a fraction of retained labels to a
random confusable (same anchor group) class, exactly the error mode Fig. 2
documents (:class:`~repro.core.pseudo_label.NoisyPseudoLabeler`, the
``noise_rate`` of :func:`~repro.experiments.common.run_method`) — and
comparing DECO with and without the discrimination loss as the noise rate
grows.

Expected shape: the accuracy penalty of removing the discrimination loss
grows with the injected noise rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..utils.metrics import mean_and_std
from .grid import run_grid
from .reporting import format_table, format_trials

__all__ = ["NoiseRobustnessResult", "run_noise_robustness",
           "format_noise_robustness"]


@dataclass
class NoiseRobustnessResult:
    """Per-seed accuracy per (noise_rate, alpha)."""

    dataset: str
    ipc: int
    noise_rates: tuple[float, ...] = ()
    alphas: tuple[float, ...] = ()
    accuracy: dict[tuple[float, float], list[float]] = field(
        default_factory=dict)

    def discrimination_gain(self, noise_rate: float) -> float:
        """Mean accuracy of alpha=max over alpha=0 at a noise rate."""
        best_alpha = max(self.alphas)
        return (mean_and_std(self.accuracy[(noise_rate, best_alpha)])[0]
                - mean_and_std(self.accuracy[(noise_rate, 0.0)])[0])


def run_noise_robustness(*, dataset: str = "core50", ipc: int = 10,
                         noise_rates: Sequence[float] = (0.0, 0.2, 0.4),
                         alphas: Sequence[float] = (0.0, 0.1),
                         profile: str = "smoke",
                         **grid) -> NoiseRobustnessResult:
    """Sweep injected pseudo-label noise against the discrimination weight;
    ``grid`` (``seeds``, ``jobs``, ``checkpoint_dir``, ``resume``,
    ``progress``) goes to :func:`~repro.experiments.grid.run_grid`."""
    result = NoiseRobustnessResult(dataset=dataset, ipc=ipc,
                                   noise_rates=tuple(noise_rates),
                                   alphas=tuple(alphas))
    keys = [(float(noise), float(alpha))
            for noise in noise_rates for alpha in alphas]
    configs = [{"method": "deco", "ipc": ipc, "noise_rate": noise,
                "condenser_kwargs": {"alpha": alpha}} for noise, alpha in keys]
    runs = run_grid(dataset, profile, configs, label="noise", **grid)
    for key, seed_runs in zip(keys, runs):
        result.accuracy[key] = [run.final_accuracy for run in seed_runs]
    return result


def format_noise_robustness(result: NoiseRobustnessResult) -> str:
    headers = ["noise rate"] + [f"alpha={a:g}" for a in result.alphas] \
        + ["discrimination gain"]
    rows = []
    for noise in result.noise_rates:
        row = [f"{noise:.0%}"]
        for alpha in result.alphas:
            row.append(format_trials(result.accuracy[(noise, alpha)]))
        row.append(f"{result.discrimination_gain(noise):+.2%}")
        rows.append(row)
    return format_table(headers, rows,
                        title=f"Pseudo-label noise robustness on "
                              f"{result.dataset} (IpC={result.ipc})")
