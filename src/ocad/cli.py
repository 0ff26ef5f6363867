"""Command-line surface.

Subcommands: ``generate`` (synthetic P2P logs), ``features`` (feature matrix
CSV), ``detect`` (object scores, ranks and lifecycle texts for the most
anomalous objects), ``aggregate`` (feature-score report) and ``abstract``
(feature summary plus oracle verdicts).

Every run writes a ``run.json`` manifest with the command, all parameters,
the seed and the input digest; re-running with the manifest's parameters
reproduces the outputs byte-identically. A subcommand computes all of its
outputs and checks their names before it writes the first one, each
atomically (temp file + rename), so a run that fails with exit 1 writes
nothing; inputs are never modified. Exit codes: 0 success, 1 validation
error, 2 usage or I/O error (argparse exits 2 on a usage error, with the
usage line and one error line on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import stat
import sys
import warnings
from pathlib import Path
from typing import Iterator

from . import __version__
from ._csv import csv_bytes
from .aggregate import anomalous_feature_report
from .detect import bottom_k, rank_csv_bytes, score_csv_bytes
from .errors import InvalidConfig, OcadError
from .features import AGGREGATIONS, feature_csv_bytes
from .ocel import OcelLog, parse_ocel_json, serialize_ocel_json
from .oracle import (
    DEFAULT_MAX_EVENTS,
    DEFAULT_WHISKER,
    abstract_lifecycle,
    llm_oracle,
    render_feature_table,
    statistical_oracle,
    summarize_features,
)
from .pipeline import DETECTORS, REDUCERS, PipelineParams, build_matrix, detect_objects, score_matrix
from .synthgen import DEFAULT_MEAN_GAP, AnomalyKind, SynthConfig, generate_blocked_invoices, generate_p2p

LLM_KEY_ENV = "OCAD_LLM_API_KEY"
LIFECYCLE_DIR = "lifecycles"
NAME_MAX = 255  # bytes in one file name on the common Linux file systems
# The largest --log read. The parse streams every log an entry at a time, of
# any shape and with any fault of the log: its tracemalloc peak is 0.7 bytes
# per byte of the log (up to 1.1 for a small log with an emoji, whose read
# chunks widen to 4 bytes a character), and 2.1 for a JSON fault in the first
# entry, whose window grows to hold the rest of the text (7.0 with an emoji).
# The bound was set for 7.5 bytes per byte, the json.loads tree that the
# parse once read, within a 4 GB budget, half of an 8 GB machine. One entry
# is still read whole as json's tree, so a log of one huge entry peaks
# higher: 12.3 bytes per byte for one object of 300,000 attributes, 15.2 with
# an emoji in its id. A bound on one entry would close that (ROADMAP.md,
# item 3).
MAX_INPUT_BYTES = 530_000_000
_READ_BYTES = 1 << 16  # the chunk that _load_log reads and hashes at a time
# The longest --llm-timeout, in seconds. A socket holds its timeout as 64-bit
# nanoseconds, so it refuses one over 9.2e9 s with an OverflowError.
MAX_LLM_TIMEOUT = 1_000_000_000


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_run(out: Path, command: str, params: dict, input_digest: str, files: dict[str, bytes]) -> None:
    """Write ``files`` (names relative to ``out``), then the ``run.json``
    manifest that lists them. Every name must be one file directly in ``out``
    or in ``out/lifecycles`` (lifecycle names embed object ids from the log);
    all are checked before the first write, so a rejected name writes nothing."""
    for name in files:
        *parent, base = name.split("/")
        try:
            fits = len(os.fsencode(base + ".tmp")) <= NAME_MAX
        except UnicodeEncodeError:
            fits = False
        if parent not in ([], [LIFECYCLE_DIR]) or base in ("", ".", "..") or "\0" in name or not fits:
            raise InvalidConfig(f"cannot write output {name!r}: not a file name in --out or --out/{LIFECYCLE_DIR}")
    manifest = {"command": command, "params": params, "input_sha256": input_digest, "outputs": sorted(files),
                "version": __version__}
    out.mkdir(parents=True, exist_ok=True)
    if command == "detect":
        (out / LIFECYCLE_DIR).mkdir(exist_ok=True)
    for name, data in files.items():
        _write_atomic(out / name, data)
    _write_atomic(out / "run.json", (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


class _LogBytes:
    """The bytes of the log at ``path`` for :func:`parse_ocel_json`, in the
    chunks of one read. Each iteration reads and hashes the file
    ``_READ_BYTES`` at a time, holding one chunk, and sets ``digest`` to the
    sha256 of the bytes once it has read them all. Its
    length is the file's size in bytes, which the benchmark's tracer
    (``perfbench/tracer.py``) counts as the bytes parsed."""

    def __init__(self, path: str, size: int) -> None:
        self.path, self.size, self.digest = path, size, None

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[bytes]:
        digest = hashlib.sha256()
        with open(self.path, "rb") as f:
            for chunk in iter(lambda: f.read(_READ_BYTES), b""):
                digest.update(chunk)
                yield chunk
        self.digest = digest.hexdigest()


def _load_log(path: str) -> tuple[OcelLog, str]:
    st = Path(path).stat()  # a missing file fails here as the read would
    if not stat.S_ISREG(st.st_mode):  # the size of a pipe bounds nothing, and the parse may read the log twice
        raise OSError(f"log {path!r} is not a regular file")
    if st.st_size > MAX_INPUT_BYTES:
        raise InvalidConfig(f"log {path!r} is {st.st_size} bytes, over the bound of {MAX_INPUT_BYTES} bytes")
    chunks = _LogBytes(path, st.st_size)
    return parse_ocel_json(chunks), chunks.digest


# ------------------------------------------------------------- subcommands

# The rate flags of ``generate``, by destination, and the kind each plants.
_RATE_FLAGS = {
    "maverick_rate": AnomalyKind.MAVERICK_BUYING,
    "postmortem_rate": AnomalyKind.POST_MORTEM_PR_CHANGE,
    "double_invoice_rate": AnomalyKind.DOUBLE_INVOICE,
    "reopen_rate": AnomalyKind.REOPEN_LONG_GAP,
    "blocked_rate": AnomalyKind.BLOCKED_INVOICE,
}


def _cmd_generate(args) -> int:
    # an unset rate is dropped; NaN and negatives reach the check
    rates = {kind: getattr(args, dest) for dest, kind in _RATE_FLAGS.items() if getattr(args, dest) != 0}
    cfg = SynthConfig(n_orders=args.n_orders, anomaly_rates=rates, seed=args.seed, mean_gap=args.mean_gap)
    generator = generate_blocked_invoices if args.variant == "blocked-invoices" else generate_p2p
    log, truth = generator(cfg)
    params = {
        "variant": args.variant,
        "n_orders": args.n_orders,
        "rates": {k.value: v for k, v in rates.items()},
        "seed": args.seed,
        "mean_gap": args.mean_gap,
    }
    data = serialize_ocel_json(log)
    if len(data) > MAX_INPUT_BYTES:  # every other command would refuse to read it
        raise InvalidConfig(f"the log would be {len(data)} bytes, over the --log bound of {MAX_INPUT_BYTES} bytes")
    out = Path(args.out)
    _write_run(out, "generate", params, _digest(json.dumps(params, sort_keys=True).encode()),
               {"log.json": data, "ground_truth.csv": truth.to_csv_bytes()})
    print(f"wrote {out / 'log.json'} ({len(log.events)} events, {len(log.objects)} objects)")
    return 0


# The subcommands' own knobs, checked in this order before the log is read:
# (name, rule in the error message, test).
_KNOB_RULES = (
    ("top_k", ">= 0", lambda v: v >= 0),
    ("max_events", ">= 1", lambda v: v >= 1),
    ("top_n", ">= 0", lambda v: v >= 0),
    ("whisker", "a finite number >= 0", lambda v: math.isfinite(v) and v >= 0),
    ("max_rows", ">= 0", lambda v: v >= 0),
    ("llm_timeout", f"a number > 0 and <= {MAX_LLM_TIMEOUT}", lambda v: 0 < v <= MAX_LLM_TIMEOUT),
)


def _cmd_pipeline(args) -> int:
    """Run features, detect, aggregate or abstract: check every knob, read the
    log, then write what ``args.compute`` returns, ``(files, shown, detail)``:
    the output files by name, the one the printed line names and the rest of
    that line. ``run.json`` records the pipeline parameters and the
    subcommand's own knobs named in ``args.record``."""
    given = vars(args)
    for name, rule, ok in _KNOB_RULES:
        if name in given and not ok(given[name]):
            raise InvalidConfig(f"{name} must be {rule}, got {given[name]}")
    params = PipelineParams(**{f.name: given[f.name] for f in dataclasses.fields(PipelineParams)
                               if f.init and given[f.name] is not None})
    log, digest = _load_log(args.log)
    files, shown, detail = args.compute(args, log, params)
    out = Path(args.out)
    recorded = {name: given[name] for name in args.record}
    _write_run(out, args.command, {**dataclasses.asdict(params), "log": args.log, **recorded}, digest, files)
    print(f"wrote {out / shown}{detail}")
    return 0


def _features(args, log: OcelLog, params: PipelineParams):
    _, Fn = build_matrix(log, params)
    detail = f" ({len(Fn.row_ids)} rows, {len(Fn.columns)} columns)"
    return {"features.csv": feature_csv_bytes(Fn)}, "features.csv", detail


def _detect(args, log: OcelLog, params: PipelineParams):
    scores, ranks = detect_objects(log, params)
    files = {"scores.csv": score_csv_bytes(scores), "ranks.csv": rank_csv_bytes(ranks)}
    top = min(args.top_k, len(ranks.object_ids))
    for r, o in enumerate(bottom_k(ranks, top)):
        text = abstract_lifecycle(log, o, max_events=args.max_events)
        files[f"{LIFECYCLE_DIR}/rank{r:03d}_{o}.txt"] = text.encode()
    return files, "ranks.csv", f"; lifecycle texts for bottom {top} objects"


def _aggregate(args, log: OcelLog, params: PipelineParams):
    F, Fn = build_matrix(log, params)
    table = anomalous_feature_report(F, score_matrix(Fn, params), top_n=args.top_n)
    files = {"feature_scores.csv": table.to_csv_bytes(), "feature_scores.txt": table.to_text().encode()}
    return files, "feature_scores.csv", f" ({len(table.rows)} rows)"


def _abstract(args, log: OcelLog, params: PipelineParams):
    _, Fn = build_matrix(log, params)
    summary = summarize_features(Fn)
    text = summary.render()
    if args.raw_table:
        text += "\n" + render_feature_table(Fn, max_rows=args.max_rows)
    files = {"feature_summary.txt": text.encode()}
    if args.oracle == "statistical":
        verdicts = statistical_oracle(summary, whisker=args.whisker)
        rows = ([v.feature_name, v.fence_lo, v.fence_hi, v.rationale] for v in verdicts)
        files["oracle_verdicts.csv"] = csv_bytes(["feature", "fence_lo", "fence_hi", "rationale"], rows)
    else:
        files["llm_reply.txt"] = llm_oracle(
            endpoint=args.llm_endpoint,
            api_key=os.environ.get(LLM_KEY_ENV, ""),
            prompt=text,
            timeout=args.llm_timeout,
            model=args.llm_model,
        ).encode()
    return files, "feature_summary.txt", ""


# ------------------------------------------------------------------ parser

def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the PipelineParams fields, without defaults: a flag left
    out keeps the field's default."""
    p.add_argument("--log", required=True, help="input OCEL 2.0 JSON file")
    p.add_argument("--object-type", required=True, help="object type to analyze")
    p.add_argument("--detector", choices=DETECTORS, help="default: iforest, or lof when --reducer fastmap")
    p.add_argument("--reducer", choices=REDUCERS)
    p.add_argument("--propagate-from", help="neighbor object type whose features are propagated")
    p.add_argument("--agg", choices=AGGREGATIONS)
    p.add_argument("--min-variance", type=float)
    p.add_argument("--reduce-k", type=int)
    p.add_argument("--n-trees", type=int)
    p.add_argument("--subsample", type=int)
    p.add_argument("--lof-k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cobirth-codeath", action="store_true", dest="include_cobirth_codeath",
                   help="include co-birth/co-death count features")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ocad", description="Anomaly detection for object-centric event logs")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic P2P log with planted anomalies")
    g.add_argument("--variant", choices=["p2p", "blocked-invoices"], default="p2p")
    g.add_argument("--n-orders", type=int, required=True)
    for dest in _RATE_FLAGS:
        g.add_argument("--" + dest.replace("_", "-"), type=float, default=0.0)
    g.add_argument("--mean-gap", type=float, default=DEFAULT_MEAN_GAP)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    f = sub.add_parser("features", help="extract, propagate, normalize and filter features")
    _add_pipeline_flags(f)
    f.set_defaults(func=_cmd_pipeline, compute=_features, record=())

    d = sub.add_parser("detect", help="score and rank objects; write lifecycle texts for the worst")
    _add_pipeline_flags(d)
    d.add_argument("--top-k", type=int, default=10)
    d.add_argument("--max-events", type=int, default=DEFAULT_MAX_EVENTS)
    d.set_defaults(func=_cmd_pipeline, compute=_detect, record=("top_k", "max_events"))

    a = sub.add_parser("aggregate", help="aggregate object scores into a feature-score report")
    _add_pipeline_flags(a)
    a.add_argument("--top-n", type=int, default=20)
    a.set_defaults(func=_cmd_pipeline, compute=_aggregate, record=("top_n",))

    b = sub.add_parser("abstract", help="feature summary text and oracle verdicts")
    _add_pipeline_flags(b)
    b.add_argument("--oracle", choices=["statistical", "llm"], default="statistical")
    b.add_argument("--whisker", type=float, default=DEFAULT_WHISKER)
    b.add_argument("--raw-table", action="store_true", help="append the raw feature table to the summary")
    b.add_argument("--max-rows", type=int, default=200)
    b.add_argument("--llm-endpoint", default="http://localhost:8000/v1/chat/completions")
    b.add_argument("--llm-model", default="gpt-4-turbo")
    b.add_argument("--llm-timeout", type=float, default=60.0)
    b.set_defaults(func=_cmd_pipeline, compute=_abstract, record=("oracle", "whisker", "raw_table"))

    return parser


def main(argv: list[str] | None = None) -> int:
    # One line per warning: the default format adds a source path and line.
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OcadError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
