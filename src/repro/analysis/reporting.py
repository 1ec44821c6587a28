"""Plain-text tables shared by every reporting surface of the repo.

:func:`format_table` is the one table renderer: the ``repro`` CLI uses
it for scenario/sweep summaries, ``repro store ls``/``stat``, the
``repro bench`` registry's per-benchmark timing tables, and the
``repro runs report`` telemetry timeline.  Keeping a single layout
(right-aligned columns, ``.3g`` floats, ``.0f`` for large or integral
values) makes outputs from different subcommands diff cleanly.

:func:`record_extra_info` attaches a rendered table plus headline
scalars to pytest-benchmark output for the standalone scripts under
``benchmarks/`` (run via ``pytest benchmarks/ --benchmark-only``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str = "") -> str:
    """A monospace table with right-aligned numeric columns."""
    def fmt(x: Any) -> str:
        if isinstance(x, float):
            if x == 0:
                return "0"
            if abs(x) >= 100 or float(x).is_integer():
                return f"{x:.0f}"
            return f"{x:.3g}"
        return str(x)

    cells = [[fmt(x) for x in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                title: str = "") -> str:
    text = format_table(headers, rows, title)
    print("\n" + text + "\n")
    return text


def record_extra_info(benchmark, table: str, **scalars: Any) -> None:
    """Attach the table and headline scalars to pytest-benchmark output."""
    if benchmark is None:
        return
    benchmark.extra_info["table"] = table
    for key, value in scalars.items():
        benchmark.extra_info[key] = value
