#!/usr/bin/env python3
"""ocad benchmark: one ``ocad`` CLI invocation per sample on a seeded log.

Run from the root of a checkout (the program is imported from ``./src``)::

    python3 perfbench/run.py --workload p2p-detect-lof --seed 1 --seconds 45 --trace 0

Set-up builds the workload's input from ``--seed`` in a child process
(``inputs.py``: ``ocad generate`` in-process, timed without interpreter
start). With ``--trace 0`` the benchmark then spawns ``python -m ocad.cli``
children one at a time for ``--seconds`` seconds, runs the set-up four more
times spread over that window, and reports the end-to-end metrics as
medians.
With ``--trace 1`` it also runs the same command once under
``perfbench/tracer.py`` and reports the per-layer metrics. Every output tree
is checked (see README.md). Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Spans and a full result record are written under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import summarize

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".bench_out"

SETUP_REPS = 5
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 60.0
# A run must end within 180 s. It starts no invocation after RUN_DEADLINE_S,
# and a child still running at HARD_DEADLINE_S is killed and counts as failed.
RUN_DEADLINE_S = 100.0
HARD_DEADLINE_S = 170.0
PLANTED_SHARE = 0.15  # planted orders are looked for in this bottom share of ranks.csv

LOG = "{log}"  # placeholder for the input log path in a workload's command


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str  # key of GENERATE_ARGS: the input the set-up builds
    command: tuple[str, ...]  # ocad argv without --seed and --out


# `ocad generate` arguments, without --seed and --out, that build each
# variant's input. The P2P rates are the README's.
N_ORDERS = 8000
GENERATE_ARGS = {
    "p2p": ("generate", "--n-orders", str(N_ORDERS), "--maverick-rate", "0.05", "--postmortem-rate", "0.03",
            "--double-invoice-rate", "0.05", "--reopen-rate", "0.02"),
    "blocked-invoices": ("generate", "--variant", "blocked-invoices", "--n-orders", str(N_ORDERS),
                         "--blocked-rate", "0.04"),
}
WORKLOADS = {
    w.name: w
    for w in (
        Workload("p2p-detect-lof", "p2p",
                 ("detect", "--log", LOG, "--object-type", "order", "--reducer", "fastmap")),
        Workload("blocked-aggregate-prop", "blocked-invoices",
                 ("aggregate", "--log", LOG, "--object-type", "invoice", "--propagate-from", "order")),
    )
}

END_TO_END = (("wall_s", "s"), ("events_per_s", "events/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# Per-layer metrics of the traced run. "_s" is the self time of the named
# functions' spans (span time minus child spans), "_calls" a span count.
SELF_TIMES = {
    "cli.import_s": ("cli.import",),
    "cli.self_s": ("cli.main", "cli.build_parser"),
    "ocel.parse_ocel_json_s": ("ocel.parse_ocel_json",),
    "ocel.serialize_ocel_json_s": ("ocel.serialize_ocel_json",),
    "ocel.interaction_sets_s": ("ocel.interaction_sets",),
    "ocel.lifecycle_s": ("ocel.lifecycle",),
    "features.extract_features_s": ("features.extract_features",),
    "features.propagate_features_s": ("features.propagate_features",),
    "features.normalize_s": ("features.normalize",),
    "features.variance_filter_s": ("features.variance_filter",),
    "features.explode_values_s": ("features.explode_values",),
    "reduce.fastmap_s": ("reduce.fastmap",),
    "detect.lof_s": ("detect.lof",),
    "detect.isolation_forest_s": ("detect.isolation_forest",),
    "detect.rank_s": ("detect.rank",),
    "detect.bottom_k_s": ("detect.bottom_k",),
    "detect.score_csv_bytes_s": ("detect.score_csv_bytes",),
    "detect.rank_csv_bytes_s": ("detect.rank_csv_bytes",),
    "aggregate.anomalous_feature_report_s": ("aggregate.anomalous_feature_report",),
    "oracle.abstract_lifecycle_s": ("oracle.abstract_lifecycle",),
    "synthgen.generate_s": ("synthgen.generate_p2p", "synthgen.generate_blocked_invoices"),
}
CALLS = {
    "ocel.interaction_sets_calls": "ocel.interaction_sets",
    "ocel.lifecycle_calls": "ocel.lifecycle",
    "features.extract_features_calls": "features.extract_features",
    "oracle.abstract_lifecycle_calls": "oracle.abstract_lifecycle",
}
RSS_RISES = {
    "ocel.parse_rss_rise_mb": "ocel.parse_ocel_json",
    "detect.lof_rss_rise_mb": "detect.lof",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in CALLS},
    **{name: "MB" for name in RSS_RISES},
    "features.columns_extracted": "count",
    "features.columns_kept": "count",
    "features.columns_kept_ratio": "fraction",
    "features.variance_fallback_calls": "count",
    "aggregate.exploded_columns": "count",
    "detect.degenerate_warnings": "count",
    "ocel.events": "count",
    "ocel.objects": "count",
    "ocel.input_mb": "MB",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "quality.planted_in_bottom": "count",
    "quality.planted_total": "count",
    "quality.planted_recall": "fraction",
}


# ------------------------------------------------------------------ environment

def child_env(nproc: int) -> dict[str, str]:
    """Environment of every child: the checkout's ``src`` first on the path and
    ``nproc`` BLAS threads, whatever the calling shell set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(nproc)))
    return env


def _timeout(deadline: float) -> float:
    return max(1.0, min(CHILD_TIMEOUT_S, deadline - time.perf_counter()))


def build_input(argv: list[str], env: dict[str, str], deadline: float) -> dict:
    """One set-up in a child process; its JSON report."""
    try:
        setup = subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                               text=True, timeout=_timeout(deadline), check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit("error: set-up timed out") from None
    if setup.returncode != 0:
        raise SystemExit(f"error: set-up failed with exit code {setup.returncode}:\n{setup.stderr}")
    return json.loads(setup.stdout.splitlines()[-1])


# -------------------------------------------------------------- invocations

@dataclass
class Invocation:
    out: Path
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str
    problems: list[str]


def spawn(argv: list[str], out: Path, env: dict[str, str], deadline: float) -> Invocation:
    """Run one child to completion; wall time from spawn to exit and the
    child's own rusage from ``os.wait4``."""
    err_path = out.with_name(out.name + ".stderr")
    t0 = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(_timeout(deadline), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    return Invocation(out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stderr, problems)


def run_traced(command: list[str], out: Path, name: str, env: dict[str, str], deadline: float):
    """One ``ocad`` command under tracer.py; the invocation, the span
    document (None when none was written) and its per-name summary."""
    spans_path = OUT_ROOT / "traces" / f"{name}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.unlink(missing_ok=True)
    inv = spawn([sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), *command, "--out", str(out)],
                out, env, deadline)
    if not spans_path.is_file():
        return inv, None, {}
    doc = json.loads(spans_path.read_text(encoding="utf-8"))
    return inv, doc, summarize(doc["spans"])


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_tree(command: str, out: Path, inputs: Path) -> list[str]:
    """Checks of the output tree of one ``ocad`` command against its inputs,
    independent of any other invocation."""
    try:
        return _check_tree(command, out, inputs)
    except (OSError, ValueError, IndexError) as exc:
        return [f"output tree is incomplete or malformed: {exc!r}"]


def _check_tree(command: str, out: Path, inputs: Path) -> list[str]:
    problems = []
    manifest_path = out / "run.json"
    if not manifest_path.is_file():
        return ["run.json missing"]
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    written = sorted(k for k in tree_digest(out) if k != "run.json")
    if manifest.get("outputs") != written:
        problems.append(f"run.json lists {manifest.get('outputs')} but the tree holds {written}")
    if command != "generate":
        digest = hashlib.sha256((inputs / "log.json").read_bytes()).hexdigest()
        if manifest.get("input_sha256") != digest:
            problems.append("run.json input_sha256 is not the digest of the input log")
    if command == "detect":
        orders = {row[0] for row in _csv_rows(inputs / "ground_truth.csv")[1:]}
        ranks = _csv_rows(out / "ranks.csv")
        scores = _csv_rows(out / "scores.csv")
        if ranks[0] != ["object_id", "rank"] or {r[0] for r in ranks[1:]} != orders:
            problems.append("ranks.csv does not rank exactly the orders of the log")
        elif sorted(int(r[1]) for r in ranks[1:]) != list(range(len(orders))):
            problems.append("ranks in ranks.csv are not 0..n-1")
        if len(scores) != len(orders) + 1:
            problems.append("scores.csv does not score every order once")
        if len(list((out / "lifecycles").iterdir())) != min(10, len(orders)):
            problems.append("lifecycle texts are not written for the bottom 10 orders")
    elif command == "aggregate":
        rows = _csv_rows(out / "feature_scores.csv")
        if rows[0] != ["feature", "count", "fea_score"] or not 2 <= len(rows) <= 21:
            problems.append("feature_scores.csv is not a header plus 1..20 rows")
    return problems


def planted_recall(out: Path, inputs: Path) -> tuple[int, int]:
    """Planted orders of ground_truth.csv that the CLI's ranks.csv puts in
    the bottom 15 %, and the number planted."""
    planted = {row[0] for row in _csv_rows(inputs / "ground_truth.csv")[1:] if row[1]}
    ranks = {row[0]: int(row[1]) for row in _csv_rows(out / "ranks.csv")[1:]}
    cutoff = max(1, int(PLANTED_SHARE * len(ranks)))
    return sum(1 for o in planted if ranks.get(o, cutoff) < cutoff), len(planted)


# ---------------------------------------------------------------- metrics

def layer_metrics(doc: dict, summary: dict, traced_wall: float, untraced_wall: float,
                  planted: tuple[int, int]) -> dict[str, float]:
    def total(field: str, names) -> float:
        return sum(summary.get(n, {}).get(field, 0) for n in names)

    counts = doc["counts"]
    m: dict[str, float] = {k: total("self_s", names) for k, names in SELF_TIMES.items()}
    m.update({k: total("calls", [name]) for k, name in CALLS.items()})
    m.update({k: total("rss_rise_kb", [name]) / 1024.0 for k, name in RSS_RISES.items()})
    extracted = counts.get("features.columns_extracted", 0)
    kept = counts.get("features.columns_kept", 0)
    m["features.columns_extracted"] = extracted
    m["features.columns_kept"] = kept
    m["features.columns_kept_ratio"] = kept / extracted if extracted else 0.0
    m["features.variance_fallback_calls"] = (
        summary.get("features.variance_filter", {}).get("raised", {}).get("AllColumnsDropped", 0))
    m["aggregate.exploded_columns"] = counts.get("aggregate.exploded_columns", 0)
    m["detect.degenerate_warnings"] = doc["degenerate_warnings"]
    m["ocel.events"] = counts.get("ocel.events", 0)
    m["ocel.objects"] = counts.get("ocel.objects", 0)
    m["ocel.input_mb"] = counts.get("ocel.document_bytes", 0) / 1e6
    m["trace.wall_s"] = doc["wall_s"]
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["quality.planted_in_bottom"], m["quality.planted_total"] = planted
    m["quality.planted_recall"] = planted[0] / planted[1] if planted[1] else 0.0
    return m


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


# -------------------------------------------------------------------- run

def run(workload: Workload, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    t_start = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    loadavg_start = os.getloadavg()
    problems: list[str] = []
    inputs = work / "input"
    inputs.mkdir(parents=True)
    generate = [*GENERATE_ARGS[workload.variant], "--seed", str(seed)]
    setup_argv = [sys.executable, str(BENCH_DIR / "inputs.py"), *generate, "--out", str(inputs)]
    deadline = t_start + HARD_DEADLINE_S
    built = build_input(setup_argv, env, deadline)
    setup_times, n_events, input_digest = [built["setup_s"]], built["events"], tree_digest(inputs)
    problems += [f"set-up: {p}" for p in check_tree("generate", inputs, inputs)]
    if Path(built["ocad_file"]).resolve().parent != (SRC / "ocad").resolve():
        raise SystemExit(f"error: ocad was imported from {built['ocad_file']}, not from {SRC}")
    if built["blas_threads"] is not None and built["blas_threads"] > nproc:
        problems.append(f"BLAS uses {built['blas_threads']} threads on {nproc} CPUs")
    info = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "n_orders": N_ORDERS, "nproc": nproc, "blas_threads": built["blas_threads"],
        "python": platform.python_version(), "numpy": built["numpy"], "loadavg_start": loadavg_start,
    }

    log_arg = str((inputs / "log.json").relative_to(ROOT))
    command = [a.replace(LOG, log_arg) for a in workload.command] + ["--seed", str(seed)]
    cli = [sys.executable, "-m", "ocad.cli", *command]

    # The remaining set-ups are spread evenly over the measuring window,
    # between invocations, so that setup_s and wall_s both sample the machine
    # over the whole run.
    setups_done = SETUP_REPS if trace else 1
    invocations: list[Invocation] = []
    reference: Invocation | None = None
    reference_digest: dict[str, str] = {}
    t_measure = time.perf_counter()
    while (len(invocations) < MIN_INVOCATIONS or setups_done < SETUP_REPS
           or time.perf_counter() - t_measure < seconds):
        out = work / f"out{len(invocations)}"
        inv = spawn([*cli, "--out", str(out)], out, env, deadline)
        if not inv.problems:
            digest = tree_digest(out)
            if reference is None:
                reference, reference_digest = inv, digest
                inv.problems += check_tree(workload.command[0], out, inputs)
            elif digest != reference_digest:
                inv.problems.append("output tree differs from the first invocation of this run")
            elif reference.problems:
                inv.problems.append("output tree equals the first invocation's, which failed its checks")
        invocations.append(inv)
        if inv is not reference:
            shutil.rmtree(out, ignore_errors=True)
        if (setups_done < SETUP_REPS
                and time.perf_counter() - t_measure >= setups_done * seconds / SETUP_REPS):
            setups_done += 1
            setup_times.append(build_input(setup_argv, env, deadline)["setup_s"])
            if tree_digest(inputs) != input_digest:
                problems.append("set-up wrote different bytes for the same seed")
        if time.perf_counter() - t_start > RUN_DEADLINE_S:
            break

    ok = [inv for inv in invocations if not inv.problems] or invocations
    walls = [inv.wall_s for inv in ok]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "events_per_s": n_events / wall,
        "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in ok),
        "setup_s": statistics.median(setup_times),
    }
    planted = (0, 0)
    if reference is not None and not reference.problems and workload.command[0] == "detect":
        planted = planted_recall(reference.out, inputs)

    traced_summary: dict = {}
    if trace:
        inv, doc, traced_summary = run_traced(command, work / "traced", f"{workload.name}-seed{seed}", env,
                                              deadline)
        if not inv.problems:
            if reference is None:
                inv.problems.append("no untraced output to compare with")
            elif tree_digest(work / "traced") != reference_digest:
                inv.problems.append("traced output tree differs from the untraced CLI's")
        invocations.append(inv)
        # synthgen and serialize run in the set-up, not in the workload's
        # command: trace the set-up's `ocad generate` too.
        gen_out = work / "traced-generate"
        gen, gen_doc, gen_summary = run_traced(generate, gen_out, f"{workload.name}-seed{seed}-generate",
                                               env, deadline)
        if not gen.problems and tree_digest(gen_out) != input_digest:
            gen.problems.append("traced `ocad generate` tree differs from the set-up's")
        invocations.append(gen)
        for d, summary in ((doc, traced_summary), (gen_doc, gen_summary)):
            self_sum = sum(s["self_s"] for s in summary.values())
            if d is None:
                problems.append("a traced run wrote no spans")
            elif abs(self_sum - d["wall_s"]) > 0.01 + 0.01 * d["wall_s"]:
                problems.append(f"span self times sum to {self_sum:.4f} s, traced wall is {d['wall_s']:.4f} s")
        if doc is None or gen_doc is None:
            metrics = {name: 0.0 for name in PER_LAYER_UNITS}
        else:
            metrics = layer_metrics(doc, traced_summary, inv.wall_s, wall, planted)
            for name in ("synthgen.generate_s", "ocel.serialize_ocel_json_s"):
                metrics[name] = sum(gen_summary.get(n, {}).get("self_s", 0.0) for n in SELF_TIMES[name])
        traced_summary = {"workload command": traced_summary, "ocad generate": gen_summary}

    failed = sum(1 for inv in invocations if inv.problems)
    for i, inv in enumerate(invocations):
        problems += [f"invocation {i}: {p}" for p in inv.problems]
        if inv.problems and inv.stderr.strip():
            problems.append(f"invocation {i} stderr: {inv.stderr.strip().splitlines()[-1]}")
    info.update({
        "command": ["ocad", *command, "--out", "DIR"],
        "events": n_events,
        "setup_samples_s": setup_times,
        "wall_samples_s": [inv.wall_s for inv in invocations],
        "cpu_samples_s": [inv.cpu_s for inv in invocations],
        "peak_rss_samples_mb": [inv.peak_rss_mb for inv in invocations],
        "planted_in_bottom": planted[0],
        "planted_total": planted[1],
        "problems": problems,
        "loadavg_end": os.getloadavg(),
        "spans": traced_summary,
    })
    return {
        "info": info,
        "result": {"correct": not problems, "attempted": len(invocations), "failed": failed,
                   "metrics": metrics},
    }


def report(record: dict) -> None:
    info, result = record["info"], record["result"]
    units = PER_LAYER_UNITS if info["trace"] else dict(END_TO_END)
    print(f"workload {info['workload']}  seed {info['seed']}  {info['n_orders']} orders, "
          f"{info['events']} events  command: {' '.join(info['command'])}")
    print(f"env  nproc {info['nproc']}  blas_threads {info['blas_threads']}  python {info['python']}  "
          f"numpy {info['numpy']}  loadavg {info['loadavg_start'][0]:.2f} -> {info['loadavg_end'][0]:.2f}")
    walls = info["wall_samples_s"]
    print(f"  wall samples  n={len(walls)}  " + " ".join(f"{w:.3f}" for w in walls)
          + "  cpu " + " ".join(f"{c:.3f}" for c in info["cpu_samples_s"]))
    print(f"  peak RSS MB   " + " ".join(f"{r:.1f}" for r in info["peak_rss_samples_mb"]))
    print(f"  setup samples n={len(info['setup_samples_s'])}  "
          + " ".join(f"{s:.3f}" for s in info["setup_samples_s"]))
    for traced, spans in info["spans"].items():
        print(f"  traced {traced}: {'span':24s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s} {'rss_rise_mb':>11s}")
        for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:40s} {s['calls']:7d} {s['total_s']:9.4f} {s['self_s']:9.4f} "
                  f"{s['rss_rise_kb'] / 1024:11.1f}")
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {_fmt(value):>14s} {units[name]}")
    print(f"  {'fail_ratio':40s} {result['failed']:>7d}/{result['attempted']:<6d} failed/attempted")
    if info["planted_total"]:
        print(f"  {'planted_recall':40s} {info['planted_in_bottom'] / info['planted_total']:14.4f} fraction "
              f"({info['planted_in_bottom']}/{info['planted_total']} planted orders in the bottom "
              f"{PLANTED_SHARE:.0%} of ranks.csv)")
    for p in info["problems"]:
        print(f"  PROBLEM {p}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    print(json.dumps({**result, "metrics": metrics}))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "ocad" / "__init__.py").is_file():
        print(f"error: {SRC / 'ocad'} not found; run from the root of an ocad checkout", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        work = OUT_ROOT / f"{name}-seed{args.seed}-pid{os.getpid()}"
        try:
            record = run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        results = OUT_ROOT / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8")
        report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
