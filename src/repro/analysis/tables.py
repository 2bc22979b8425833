"""Fixed-width ASCII tables for experiment reports."""

from __future__ import annotations

from typing import Any, Sequence


class Table:
    """A simple aligned table with a title and column headers."""

    def __init__(self, title: str, headers: Sequence[str]) -> None:
        self.title = title
        self.headers = list(headers)
        self.rows: list[list[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append([_format_cell(cell) for cell in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * max(len(self.title), len(sep))]
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _format_cell(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    return str(cell)
