"""Span recorder for the traced benchmark run.

Run as a script, it imports ``ocad.cli``, wraps the public functions of every
layer module wherever an ``ocad`` module refers to them (``cli`` and
``pipeline`` import them by name, so patching only the defining module would
miss their calls), wraps ``OcelLog.lifecycle`` and
``OcelLog.interaction_sets``, calls ``ocad.cli.main(argv)`` in this process
and writes every span to a JSON file when the command has finished::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json detect --log ... --out ...

The exit code is the one ``ocad.cli.main`` returned. :func:`summarize` turns
the spans into per-function call counts, total and self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time
import warnings

LAYERS = ("ocel", "features", "reduce", "detect", "aggregate", "oracle", "synthgen", "pipeline", "cli")
TRACED_METHODS = ("lifecycle", "interaction_sets")  # of ocel.OcelLog; called once per object and type

# Span record fields, kept as lists so the hot wrapper stays cheap.
NAME, PARENT, T0, T1, RSS0, RSS1, EXC = range(7)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span list with a parent id per span, plus named counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, int] = {}

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, rss: bool = True, counter=None):
        """``fn`` recording one span per call. ``rss`` samples the ru_maxrss
        high-water mark at both ends; ``counter(tracer, args, result)`` runs
        after the span closes (``result`` is None when ``fn`` raised)."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], 0.0, 0.0, _maxrss_kb() if rss else 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[T0] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                rec[EXC] = type(exc).__name__
                raise
            finally:
                rec[T1] = clock()
                if rss:
                    rec[RSS1] = _maxrss_kb()
                stack.pop()
                if counter is not None:
                    counter(self, args, result)

        return traced


def _count_parse(tracer: Tracer, args, log) -> None:
    tracer.count("ocel.document_bytes", len(args[0]))
    if log is not None:
        tracer.count("ocel.events", len(log.events))
        tracer.count("ocel.objects", len(log.objects))


def _count_serialize(tracer: Tracer, args, data) -> None:
    tracer.count("ocel.events", len(args[0].events))
    tracer.count("ocel.objects", len(args[0].objects))
    if data is not None:
        tracer.count("ocel.document_bytes", len(data))


def _count_variance_filter(tracer: Tracer, args, kept) -> None:
    tracer.count("features.columns_extracted", len(args[0].columns))
    tracer.count("features.columns_kept", len(kept.columns) if kept is not None else 0)


def _count_explode(tracer: Tracer, args, exploded) -> None:
    if exploded is not None:
        tracer.count("aggregate.exploded_columns", len(exploded.columns))


COUNTERS = {
    "ocel.parse_ocel_json": _count_parse,
    "ocel.serialize_ocel_json": _count_serialize,
    "features.variance_filter": _count_variance_filter,
    "features.explode_values": _count_explode,
}


def install(tracer: Tracer) -> int:
    """Replace every reference to a layer's public functions, in every loaded
    ``ocad`` module namespace, by a traced wrapper. Returns the number of
    references replaced."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"ocad.{layer}")
        for attr, fn in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                wrapped[id(fn)] = (fn, tracer.wrap(name, fn, counter=COUNTERS.get(name)))
    replaced = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "ocad" and not mod_name.startswith("ocad."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                replaced += 1
    OcelLog = sys.modules["ocad.ocel"].OcelLog
    for method in TRACED_METHODS:
        setattr(OcelLog, method, tracer.wrap(f"ocel.{method}", getattr(OcelLog, method), rss=False))
        replaced += 1
    return replaced


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds (self = span time minus
    its child spans), ru_maxrss rise in KiB and exceptions by type."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[T1] - rec[T0]
    out: dict[str, dict] = {}
    for i, rec in enumerate(spans):
        s = out.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rss_rise_kb": 0, "raised": {}})
        dur = rec[T1] - rec[T0]
        s["calls"] += 1
        if rec[PARENT] < 0 or spans[rec[PARENT]][NAME] != rec[NAME]:
            s["total_s"] += dur  # recursive calls are already inside their caller's total
        s["self_s"] += dur - child_time[i]
        s["rss_rise_kb"] += max(0, rec[RSS1] - rec[RSS0])
        if rec[EXC]:
            s["raised"][rec[EXC]] = s["raised"].get(rec[EXC], 0) + 1
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    t_start = time.perf_counter()
    import_span = tracer.wrap("cli.import", lambda: importlib.import_module("ocad.cli"))
    cli = import_span()
    from ocad.errors import DegenerateMatrixWarning

    n_wrapped = tracer.wrap("trace.install", install)(tracer)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateMatrixWarning)
        rc = cli.main(cli_argv)
    t_end = time.perf_counter()
    doc = {
        "wall_s": t_end - t_start,
        "exit_code": rc,
        "wrapped_references": n_wrapped,
        "degenerate_warnings": sum(1 for w in caught if issubclass(w.category, DegenerateMatrixWarning)),
        "counts": tracer.counts,
        "fields": ["name", "parent", "t0", "t1", "rss0_kb", "rss1_kb", "raised"],
        "spans": tracer.spans,
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")))  # dumps uses the C encoder, dump does not
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
