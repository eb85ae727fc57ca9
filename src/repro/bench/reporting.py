"""Plain-text reporting of experiment results.

The benchmark modules print one table per paper figure; these helpers keep
that formatting in one place.
"""

from __future__ import annotations

import io
from typing import Dict, List, Sequence


def format_table(rows: Sequence[Dict[str, object]], title: str = "") -> str:
    """Format a list of row dictionaries as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)\n" if title else "(no rows)\n"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {col: len(str(col)) for col in columns}
    for row in rows:
        for col in columns:
            widths[col] = max(widths[col], len(str(row.get(col, ""))))
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    header = "  ".join(str(col).ljust(widths[col]) for col in columns)
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for row in rows:
        out.write("  ".join(str(row.get(col, "")).ljust(widths[col]) for col in columns) + "\n")
    return out.getvalue()


def rows_to_csv(rows: Sequence[Dict[str, object]]) -> str:
    """Render rows as CSV text (header from the union of keys, in order seen)."""
    if not rows:
        return ""
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row.get(col, "")) for col in columns))
    return "\n".join(lines) + "\n"
