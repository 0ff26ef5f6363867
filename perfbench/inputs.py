"""Set-up of one benchmark run: build the workload's input from the seed.

``run.py`` runs this in a child process, so that the benchmark process itself
never holds a log: a child's ``ru_maxrss`` starts from the resident size of
the process that spawned it, and ``peak_rss_mb`` must be the CLI's own. The
arguments are those of ``ocad generate``::

    PYTHONPATH=src python3 perfbench/inputs.py generate --n-orders 8000 ... --seed 1 --out DEST

It calls ``ocad.cli.main`` with them in this process, timing synthgen, the
serialization and the file writes without interpreter start and imports, and
prints one JSON object: those seconds, the number of events, the numpy
version, the BLAS thread count and where ``ocad`` was imported from.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import re
import sys
import time

import numpy

import ocad
import ocad.cli


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None when the library or
    its query function is not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main(argv: list[str]) -> int:
    stdout = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        rc = ocad.cli.main(argv)
    seconds = time.perf_counter() - t0
    if rc != 0:
        return rc
    # `ocad generate` reports "wrote DEST/log.json (N events, M objects)".
    events = re.search(r"\((\d+) events, \d+ objects\)", stdout.getvalue())
    if events is None:
        print(f"error: no event count in the output of ocad generate: {stdout.getvalue()!r}", file=sys.stderr)
        return 1
    print(json.dumps({
        "setup_s": seconds,
        "events": int(events.group(1)),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "ocad_file": ocad.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
