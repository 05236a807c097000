"""Table II: execution time and accuracy of the condensation methods.

Swaps DC / DSA / DM / DECO in as the condensation algorithm inside the same
on-device pipeline on the CORe50-like stream and reports, per IpC, the total
condensation execution time and the final accuracy.  The paper's headline:
DECO is ~10x faster than DC/DSA at comparable accuracy, and slightly slower
than DM but markedly more accurate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..utils.metrics import mean_and_std
from .grid import run_grid
from .reporting import format_table, format_trials

__all__ = ["Table2Entry", "Table2Result", "run_table2", "format_table2",
           "DEFAULT_CONDENSERS"]

DEFAULT_CONDENSERS = ("dc", "dsa", "dm", "deco")


@dataclass
class Table2Entry:
    """Per-seed time/accuracy of one condensation method at one IpC."""

    condenser: str
    ipc: int
    seconds: list[float]
    accuracy: list[float]
    passes: list[int]


@dataclass
class Table2Result:
    """All Table II entries, keyed (condenser, ipc)."""

    entries: dict[tuple[str, int], Table2Entry] = field(default_factory=dict)
    condensers: tuple[str, ...] = ()
    ipcs: tuple[int, ...] = ()
    dataset: str = "core50"

    def entry(self, condenser: str, ipc: int) -> Table2Entry:
        return self.entries[(condenser, ipc)]

    def speedup(self, slow: str, fast: str, ipc: int) -> float:
        """Ratio of two methods' mean condensation times at an IpC."""
        slow_s = mean_and_std(self.entry(slow, ipc).seconds)[0]
        fast_s = mean_and_std(self.entry(fast, ipc).seconds)[0]
        return slow_s / max(fast_s, 1e-12)


def run_table2(*, dataset: str = "core50",
               ipcs: Sequence[int] = (1, 5, 10, 50),
               condensers: Sequence[str] = DEFAULT_CONDENSERS,
               profile: str = "smoke", **grid) -> Table2Result:
    """Regenerate Table II (or a subset); ``grid`` (``seeds``, ``jobs``,
    ``checkpoint_dir``, ``resume``, ``progress``) goes to
    :func:`~repro.experiments.grid.run_grid`.
    """
    result = Table2Result(condensers=tuple(condensers), ipcs=tuple(ipcs),
                          dataset=dataset)
    keys = [(condenser, ipc) for condenser in condensers for ipc in ipcs]
    configs = [{"method": "deco", "ipc": ipc, "condenser_name": condenser}
               for condenser, ipc in keys]
    runs = run_grid(dataset, profile, configs, label="table2", **grid)
    for (condenser, ipc), seed_runs in zip(keys, runs):
        result.entries[(condenser, ipc)] = Table2Entry(
            condenser=condenser, ipc=ipc,
            seconds=[run.condense_seconds for run in seed_runs],
            accuracy=[run.final_accuracy for run in seed_runs],
            passes=[run.condense_passes for run in seed_runs])
    return result


def format_table2(result: Table2Result) -> str:
    """Render the result in the paper's Table II layout."""
    headers = ["Method"]
    for ipc in result.ipcs:
        headers += [f"IpC={ipc} Time(s)", f"IpC={ipc} Acc"]
    rows = []
    for condenser in result.condensers:
        row = [condenser.upper() if condenser != "deco" else "DECO"]
        for ipc in result.ipcs:
            entry = result.entry(condenser, ipc)
            row += [format_trials(entry.seconds, scale=1.0, digits=1),
                    format_trials(entry.accuracy, digits=1)]
        rows.append(row)
    return format_table(headers, rows,
                        title=f"Table II: condensation time on {result.dataset}")
