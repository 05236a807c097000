"""Plain-text table/series formatting for experiment reports.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that formatting consistent.
"""

from __future__ import annotations

from typing import Sequence

from ..utils.metrics import mean_and_std

__all__ = ["format_table", "format_series", "format_mean_std",
           "format_trials", "format_bytes"]


def format_mean_std(mean: float, std: float, *, scale: float = 100.0,
                    digits: int = 2) -> str:
    """Render an accuracy as the paper does: ``29.84±0.26`` (percent)."""
    return f"{mean * scale:.{digits}f}±{std * scale:.{digits}f}"


def format_trials(values: Sequence[float], *, scale: float = 100.0,
                  digits: int = 2) -> str:
    """Render one grid point's per-seed values as ``mean±std``."""
    return format_mean_std(*mean_and_std(values), scale=scale, digits=digits)


def format_bytes(nbytes: float) -> str:
    """Render a byte count human-readably: ``312.0KiB``, ``4.9MiB``."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{value:.0f}B"
            return f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}GiB"  # pragma: no cover - loop always returns


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 title: str | None = None) -> str:
    """Render a monospace table with per-column alignment."""
    columns = [list(map(str, col)) for col in zip(headers, *rows)]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[float], ys: Sequence[float], *,
                  x_label: str = "x", y_label: str = "y") -> str:
    """Render a figure series as aligned (x, y) pairs."""
    lines = [f"{name}  ({x_label} -> {y_label})"]
    for x, y in zip(xs, ys):
        lines.append(f"  {x:>10g}  {y:.4f}")
    return "\n".join(lines)
