"""The one CSV writer behind every CSV file ocad writes, and the one aligned
text table behind its score tables."""

from __future__ import annotations

import csv
from types import SimpleNamespace
from typing import Iterable, Sequence


def csv_bytes(header: Sequence, rows: Iterable[Sequence]) -> bytes:
    """UTF-8 CSV with ``\\n`` line ends: the header, then one line per row.
    A field that holds ``,``, ``"``, ``\\r`` or ``\\n`` is quoted."""
    # The writer quotes a field holding any character of its line terminator,
    # so "\r\n" quotes a lone "\r" too. It writes each row in one call, so
    # each row's "\r\n" is the last two characters of one string.
    lines: list[str] = []
    w = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    w.writerow(header)
    w.writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines).encode("utf-8")


def text_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """The header, then one line per row, each ending in ``\\n``. Columns are
    two spaces apart and as wide as their widest cell; the header is
    left-aligned, and in each row the first cell is left-aligned and the rest
    right-aligned."""
    widths = [max([len(h)] + [len(r[c]) for r in rows]) for c, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(x.rjust(w) if c else x.ljust(w) for c, (x, w) in enumerate(zip(r, widths))) for r in rows]
    return "\n".join(lines) + "\n"
