"""The one CSV writer behind every CSV file ocad writes."""

from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence


def csv_bytes(header: Sequence, rows: Iterable[Sequence]) -> bytes:
    """UTF-8 CSV with ``\\n`` line ends: the header, then one line per row."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode("utf-8")
