"""Table rendering for the benchmark harness.

The paper compares three test series (§VIII): "MVAPICH" (vanilla RMA),
"New" (the redesigned engine driven by blocking calls), and "New
nonblocking" (the redesigned engine driven by the §V API).  The figures
of :mod:`repro.bench.registry` sweep these series (plus "Signal",
:data:`repro.workloads.SERIES`) and print, under each series' ``label``,
the rows the corresponding paper figure plots.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["format_table"]


def format_table(
    title: str,
    columns: Iterable[str],
    rows: Mapping[str, Mapping[str, float]],
    unit: str = "µs",
    precision: int = 1,
) -> str:
    """Render ``rows[series][column]`` as a fixed-width table.

    Missing cells print as '-'.
    """
    columns = list(columns)
    name_w = max([len(k) for k in rows] + [len("series")]) + 2
    col_w = max([len(str(c)) for c in columns] + [10]) + 2
    lines = [f"== {title} ({unit}) =="]
    header = f"{'series':<{name_w}}" + "".join(f"{str(c):>{col_w}}" for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for name, cells in rows.items():
        body = ""
        for c in columns:
            v = cells.get(str(c), cells.get(c))  # type: ignore[arg-type]
            body += f"{'-':>{col_w}}" if v is None else f"{v:>{col_w}.{precision}f}"
        lines.append(f"{name:<{name_w}}" + body)
    return "\n".join(lines)
