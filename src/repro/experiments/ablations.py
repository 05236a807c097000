"""Ablations of DECO's design choices (beyond the paper's figures).

§III motivates three design decisions that Table I/II only test jointly;
these runners isolate them:

* **one-step vs. multi-step** — fresh randomized model per matching
  iteration (paper) vs. a single model reused across iterations ("using
  multiple randomized models for a single step ... yields significantly
  better results than using one model across multiple steps").
* **confidence weighting** — Eq. (4)'s ``w_i`` on real samples vs. uniform
  weights.
* **feature discrimination** — alpha=0.1 vs. alpha=0 (also the endpoints of
  Fig. 4b, here on the streaming dataset of Table I).
* **finite-difference epsilon** — sensitivity to the Eq. (7) step size
  around the prescribed 0.01/||.||.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..utils.metrics import mean_and_std
from .grid import run_grid
from .reporting import format_table, format_trials

__all__ = ["AblationResult", "run_ablations", "format_ablations",
           "DEFAULT_VARIANTS"]

# name -> kwargs for the OneStepMatcher
DEFAULT_VARIANTS: dict[str, dict] = {
    "deco (full)": {},
    "single model, multi-step": {"rerandomize": False},
    "no confidence weighting": {"use_confidence": False},
    "no feature discrimination": {"alpha": 0.0},
    "epsilon x10": {"epsilon_numerator": 0.1},
    "epsilon /10": {"epsilon_numerator": 0.001},
    "l2 distance": {"metric": "l2"},
}


@dataclass
class AblationResult:
    """Per-seed final accuracy per ablation variant."""

    dataset: str
    ipc: int
    accuracy: dict[str, list[float]] = field(default_factory=dict)

    def mean(self, variant: str) -> float:
        return mean_and_std(self.accuracy[variant])[0]

    @property
    def full_accuracy(self) -> float:
        return self.mean("deco (full)")

    def delta(self, variant: str) -> float:
        """Mean accuracy change of a variant relative to full DECO."""
        return self.mean(variant) - self.full_accuracy


def run_ablations(*, dataset: str = "core50", ipc: int = 10,
                  variants: dict[str, dict] | None = None,
                  profile: str = "smoke", **grid) -> AblationResult:
    """Run DECO variants differing in exactly one design choice; ``grid``
    (``seeds``, ``jobs``, ``checkpoint_dir``, ``resume``, ``progress``)
    goes to :func:`~repro.experiments.grid.run_grid`."""
    variants = variants if variants is not None else DEFAULT_VARIANTS
    result = AblationResult(dataset=dataset, ipc=ipc)
    configs = [{"method": "deco", "ipc": ipc, "condenser_kwargs": dict(kwargs)}
               for kwargs in variants.values()]
    runs = run_grid(dataset, profile, configs, label="ablations", **grid)
    for name, seed_runs in zip(variants, runs):
        result.accuracy[name] = [run.final_accuracy for run in seed_runs]
    return result


def format_ablations(result: AblationResult) -> str:
    headers = ["Variant", "Accuracy", "Delta vs full"]
    rows = []
    for name, accs in result.accuracy.items():
        delta = "" if name == "deco (full)" else f"{result.delta(name):+.2%}"
        rows.append([name, format_trials(accs), delta])
    return format_table(headers, rows,
                        title=f"Ablations on {result.dataset} "
                              f"(IpC={result.ipc})")
