"""Catalog tables rendered into module docstrings."""

from __future__ import annotations

import itertools
import textwrap


def with_table(doc: str | None, rows: list[tuple[str, ...]], widths: tuple[int, ...]):
    """``doc`` with its ``@CATALOG@`` line replaced by an RST simple table.

    ``rows[0]`` is the header.  The first column is as wide as its longest
    cell; the others wrap at ``widths``, continuing on lines whose first
    column is blank.  A ``doc`` of None (as under ``python -OO``) stays None.
    """
    if doc is None:
        return None
    widths = (max(len(row[0]) for row in rows), *widths)
    rule = " ".join("=" * w for w in widths)
    lines = [rule]
    for i, row in enumerate(rows):
        cells = [textwrap.wrap(text, w, break_on_hyphens=False) for text, w in zip(row, widths)]
        for parts in itertools.zip_longest(*cells, fillvalue=""):
            lines.append(" ".join(p.ljust(w) for p, w in zip(parts, widths)).rstrip())
        if i == 0:
            lines.append(rule)
    return doc.replace("@CATALOG@", "\n".join([*lines, rule]))
