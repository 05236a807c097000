"""Table I: final average accuracy of DECO vs the selection baselines.

For each dataset and each IpC in {1, 5, 10, 50}, runs the five selection
baselines and DECO over the same streams (multiple seeds), plus the
unlimited-buffer upper bound, and reports mean±std accuracy and DECO's
relative improvement over the best baseline — the exact quantities of the
paper's Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..buffer.selection import STRATEGY_NAMES
from ..utils.metrics import mean_and_std, relative_improvement
from .grid import run_grid
from .profiles import get_profile
from .reporting import format_table, format_trials

__all__ = ["Table1Result", "run_table1", "format_table1",
           "DEFAULT_DATASETS", "DEFAULT_IPCS"]

DEFAULT_DATASETS = ("icub1", "core50", "cifar100", "imagenet10")
DEFAULT_IPCS = (1, 5, 10, 50)


@dataclass
class Table1Result:
    """All cells of Table I: per-seed accuracies keyed (dataset, ipc, method).

    Factorized-storage columns are keyed by the pseudo-method name
    ``deco@f{f}``: the run stores the buffer at ``1/f`` linear resolution
    with ``f**2 x`` the row's IpC (equal byte budget), but the cell lives
    under the row's base IpC so it reads as a same-budget comparison.
    """

    cells: dict[tuple[str, int, str], list[float]] = field(default_factory=dict)
    upper_bounds: dict[str, list[float]] = field(default_factory=dict)
    #: (dataset, ipc, method) -> persistent footprint in bytes (buffer +
    #: deployed model, from the run's memory accounting).
    memory_bytes: dict[tuple[str, int, str], int] = field(default_factory=dict)
    datasets: tuple[str, ...] = ()
    ipcs: tuple[int, ...] = ()
    baselines: tuple[str, ...] = ()
    decode_factors: tuple[int, ...] = (1,)

    def cell(self, dataset: str, ipc: int, method: str) -> list[float]:
        return self.cells[(dataset, ipc, method)]

    def mean(self, dataset: str, ipc: int, method: str) -> float:
        """Mean accuracy of a cell over its seeds."""
        return mean_and_std(self.cell(dataset, ipc, method))[0]

    def accuracy_per_mib(self, dataset: str, ipc: int, method: str) -> float:
        """Mean accuracy (%) per MiB of persistent on-device state.

        The paper states memory as images-per-class; this is the same story
        in bytes — how much accuracy each method buys per MiB it holds.
        """
        nbytes = self.memory_bytes.get((dataset, ipc, method))
        if not nbytes:
            return float("nan")
        return self.mean(dataset, ipc, method) * 100.0 / (nbytes / 2 ** 20)

    def best_baseline(self, dataset: str, ipc: int) -> tuple[str, float]:
        """Name and mean accuracy of the strongest baseline for a config."""
        best_name, best_acc = "", -1.0
        for name in self.baselines:
            acc = self.mean(dataset, ipc, name)
            if acc > best_acc:
                best_name, best_acc = name, acc
        return best_name, best_acc

    def improvement(self, dataset: str, ipc: int) -> float:
        """DECO's % relative improvement over the best baseline."""
        _, best = self.best_baseline(dataset, ipc)
        return relative_improvement(self.mean(dataset, ipc, "deco"), best)


def run_table1(*, datasets: Sequence[str] = DEFAULT_DATASETS,
               ipcs: Sequence[int] = DEFAULT_IPCS,
               baselines: Sequence[str] = STRATEGY_NAMES,
               profile: str = "smoke",
               include_upper_bound: bool = True,
               decode_factors: Sequence[int] | None = None,
               **grid) -> Table1Result:
    """Regenerate Table I (or any subset of it), one grid per dataset.

    ``grid`` (``seeds``, ``jobs``, ``checkpoint_dir``, ``resume``,
    ``progress``) goes to :func:`~repro.experiments.grid.run_grid`.

    ``decode_factors`` (default: the profile's) adds one extra DECO column
    per factor ``f > 1``, run with factorized storage at ``f**2 x`` the
    row's IpC — same byte budget, ``f**2`` more synthetic images.
    """
    factors = (tuple(decode_factors) if decode_factors is not None
               else get_profile(profile).decode_factors)
    extra_factors = tuple(f for f in factors if f > 1)
    result = Table1Result(datasets=tuple(datasets), ipcs=tuple(ipcs),
                          baselines=tuple(baselines),
                          decode_factors=tuple(sorted({1, *factors})))
    keys = [(ipc, method) for ipc in ipcs
            for method in list(baselines) + ["deco"]]
    keys += [(ipc, f"deco@f{f}") for ipc in ipcs for f in extra_factors]
    if include_upper_bound:
        keys.append((1, "upper_bound"))
    configs = []
    for ipc, method in keys:
        if method.startswith("deco@f"):
            f = int(method[len("deco@f"):])
            # Equal byte budget: 1/f**2 the bytes per image buys f**2 times
            # the images per class.
            configs.append({"method": "deco", "ipc": ipc * f * f,
                            "decode_factor": f})
        else:
            configs.append({"method": method, "ipc": ipc})
    for dataset in datasets:
        runs = run_grid(dataset, profile, configs, label="table1", **grid)
        for (ipc, method), seed_runs in zip(keys, runs):
            accs = [run.final_accuracy for run in seed_runs]
            if method == "upper_bound":
                result.upper_bounds[dataset] = accs
                continue
            result.cells[(dataset, ipc, method)] = accs
            memory = seed_runs[0].extra.get("memory")
            if memory and memory.get("total_bytes"):
                # The footprint is structural (buffer geometry + model),
                # identical across seeds.
                result.memory_bytes[(dataset, ipc, method)] = int(
                    memory["total_bytes"])
    return result


def format_table1(result: Table1Result) -> str:
    """Render the result in the paper's Table I layout.

    Extra decode factors add two columns each: the factorized DECO
    accuracy (same byte budget as the row's IpC, ``f**2 x`` the images)
    and its accuracy per MiB next to the f=1 ``Acc/MiB`` column.
    """
    extra_factors = tuple(f for f in result.decode_factors if f > 1)
    headers = (["Dataset", "IpC"] + list(result.baselines)
               + ["DECO (Ours)", "Improvement", "Acc/MiB"])
    for f in extra_factors:
        headers += [f"DECO f={f}", f"Acc/MiB f={f}"]
    headers.append("Upper Bound")
    rows = []
    for dataset in result.datasets:
        for i, ipc in enumerate(result.ipcs):
            row = [dataset if i == 0 else "", str(ipc)]
            for method in list(result.baselines) + ["deco"]:
                row.append(format_trials(result.cell(dataset, ipc, method)))
            row.append(f"{result.improvement(dataset, ipc):+.1f}%")
            per_mib = result.accuracy_per_mib(dataset, ipc, "deco")
            row.append("-" if per_mib != per_mib else f"{per_mib:.1f}")
            for f in extra_factors:
                cell = result.cells.get((dataset, ipc, f"deco@f{f}"))
                row.append("-" if cell is None else format_trials(cell))
                per_mib = result.accuracy_per_mib(dataset, ipc, f"deco@f{f}")
                row.append("-" if per_mib != per_mib else f"{per_mib:.1f}")
            ub = result.upper_bounds.get(dataset)
            row.append(format_trials(ub) if (i == 0 and ub is not None)
                       else "")
            rows.append(row)
    return format_table(headers, rows, title="Table I: final average accuracy")
