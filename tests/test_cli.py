"""CLI subcommands, exit codes, manifests and reproducibility."""

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ocad
import ocad.cli
import ocad.detect
import ocad.features
import ocad.ocel
import ocad.synthgen
from ocad.cli import build_parser, main
from ocad.errors import InvalidConfig, LlmTimeout, MalformedDocument, VarianceFallbackWarning
from ocad.features import feature_csv_bytes, normalize
from ocad.ocel import parse_ocel_json
from ocad.pipeline import PipelineParams, build_matrix

from conftest import (broken_first_key, cjk_object_id, duplicate_object_id, emoji_object_id, events_first,
                      make_matrix, missing_first_type, missing_last_comma, non_ascii_object_id, not_utf8_in_the_middle,
                      objects_twice, ocel_doc, offset_last_stamp, unknown_last_object)


def _dir_digest(path, skip=()):
    out = {}
    for p in sorted(path.rglob("*")):
        if p.is_file() and p.name not in skip:
            out[str(p.relative_to(path))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture
def generated(tmp_path):
    out = tmp_path / "gen"
    code = main(
        [
            "generate",
            "--n-orders", "40",
            "--maverick-rate", "0.1",
            "--double-invoice-rate", "0.1",
            "--seed", "42",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_generate_writes_log_truth_and_manifest(generated):
    assert (generated / "log.json").exists()
    assert (generated / "ground_truth.csv").exists()
    manifest = json.loads((generated / "run.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["params"]["seed"] == 42
    assert sorted(manifest["outputs"]) == ["ground_truth.csv", "log.json"]


def test_generate_reproducible_from_manifest(generated, tmp_path):
    manifest = json.loads((generated / "run.json").read_text())
    p = manifest["params"]
    out2 = tmp_path / "gen2"
    argv = ["generate", "--variant", p["variant"], "--n-orders", str(p["n_orders"]),
            "--seed", str(p["seed"]), "--mean-gap", str(p["mean_gap"]), "--out", str(out2)]
    for kind, flag in (
        ("MaverickBuying", "--maverick-rate"),
        ("PostMortemPRChange", "--postmortem-rate"),
        ("DoubleInvoice", "--double-invoice-rate"),
        ("ReopenLongGap", "--reopen-rate"),
        ("BlockedInvoice", "--blocked-rate"),
    ):
        if kind in p["rates"]:
            argv += [flag, str(p["rates"][kind])]
    assert main(argv) == 0
    assert _dir_digest(out2) == _dir_digest(generated)


def test_detect_writes_scores_ranks_and_lifecycles(generated, tmp_path):
    out = tmp_path / "det"
    code = main(
        [
            "detect",
            "--log", str(generated / "log.json"),
            "--object-type", "order",
            "--seed", "7",
            "--top-k", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "scores.csv").read_text().startswith("object_id,score")
    ranks = (out / "ranks.csv").read_text().splitlines()
    assert ranks[0] == "object_id,rank"
    assert len(ranks) == 41
    texts = sorted((out / "lifecycles").glob("rank*.txt"))
    assert len(texts) == 5
    assert texts[0].name.startswith("rank000_")


def test_detect_names_the_number_of_lifecycle_texts_written(tmp_path, capsys):
    # --top-k defaults to 10, over the 3 orders there are to write
    gen, out = tmp_path / "gen", tmp_path / "det"
    assert main(["generate", "--n-orders", "3", "--seed", "1", "--out", str(gen)]) == 0
    capsys.readouterr()
    assert main(["detect", "--log", str(gen / "log.json"), "--object-type", "order", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'ranks.csv'}; lifecycle texts for bottom 3 objects\n"
    assert len(list((out / "lifecycles").iterdir())) == 3


def test_detect_run_is_reproducible(generated, tmp_path):
    argv_tail = [
        "--log", str(generated / "log.json"),
        "--object-type", "order",
        "--detector", "lof",
        "--reducer", "fastmap",
        "--reduce-k", "4",
        "--seed", "3",
        "--out",
    ]
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["detect", *argv_tail, str(out1)]) == 0
    assert main(["detect", *argv_tail, str(out2)]) == 0
    assert _dir_digest(out1) == _dir_digest(out2)


def test_detect_default_detector_follows_reducer(generated, tmp_path):
    out = tmp_path / "d"
    assert main(["detect", "--log", str(generated / "log.json"), "--object-type", "order",
                 "--reducer", "fastmap", "--out", str(out)]) == 0
    assert json.loads((out / "run.json").read_text())["params"]["detector"] == "lof"
    out2 = tmp_path / "d2"
    assert main(["detect", "--log", str(generated / "log.json"), "--object-type", "order",
                 "--out", str(out2)]) == 0
    assert json.loads((out2 / "run.json").read_text())["params"]["detector"] == "iforest"


def test_params_default_detector_follows_reducer():
    assert PipelineParams(object_type="order", reducer="fastmap").detector == "lof"
    assert PipelineParams(object_type="order").detector == "iforest"
    assert PipelineParams(object_type="order", reducer="fastmap", detector="iforest").detector == "iforest"
    assert PipelineParams(object_type="order", detector="lof").detector == "lof"


@pytest.mark.parametrize("name, value", [("detector", "svm"), ("reducer", "umap"), ("agg", "avg"), ("agg", None)])
def test_params_reject_an_unknown_pipeline_name(name, value):
    with pytest.raises(InvalidConfig, match=f"^{name} must be one of .*, got {value!r}$"):
        PipelineParams(object_type="order", **{name: value})


@pytest.mark.parametrize("command", ["features", "detect", "aggregate", "abstract"])
def test_pipeline_flags_cover_every_params_field(command):
    """Every settable PipelineParams field has a flag of its own name."""
    dests = {action.dest for action in _SUBCOMMANDS[command]._actions}
    assert {f.name for f in dataclasses.fields(PipelineParams) if f.init} <= dests


def test_detect_does_not_mutate_input(generated, tmp_path):
    log_path = generated / "log.json"
    before = hashlib.sha256(log_path.read_bytes()).hexdigest()
    main(["detect", "--log", str(log_path), "--object-type", "order", "--out", str(tmp_path / "x")])
    assert hashlib.sha256(log_path.read_bytes()).hexdigest() == before


def test_features_subcommand(generated, tmp_path):
    out = tmp_path / "feat"
    code = main(
        [
            "features",
            "--log", str(generated / "log.json"),
            "--object-type", "invoice",
            "--propagate-from", "order",
            "--agg", "mean",
            "--out", str(out),
        ]
    )
    assert code == 0
    header = (out / "features.csv").read_text().splitlines()[0]
    assert header.startswith("object_id,")
    assert "prop" in header


def test_features_on_empty_log_is_validation_error(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_bytes(ocel_doc())
    code = main(["features", "--log", str(empty), "--object-type", "order", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_a_type_without_feature_columns_is_refused_before_scoring(tmp_path, capsys):
    """Objects with no events and no attributes have no feature columns:
    every command that scores them exits 1 with one line and writes nothing,
    while features and abstract write their tables without a warning."""
    objects = [_order(f"o{i}") for i in range(3)] + [{"id": f"t{i:02d}", "type": "t"} for i in range(30)]
    log = tmp_path / "log.json"
    log.write_bytes(ocel_doc(events=[_event(f"e{i}", "A", i + 1, 0, f"o{i}") for i in range(3)], objects=objects))
    for argv in (["detect"], ["detect", "--detector", "lof"], ["detect", "--reducer", "fastmap"],
                 ["detect", "--reducer", "pca"], ["aggregate"], ["aggregate", "--detector", "lof"]):
        code = main([*argv, "--log", str(log), "--object-type", "t", "--out", str(tmp_path / "run" / "out")])
        assert (code, capsys.readouterr().err) == (1, "error: type 't' has no feature columns to score\n"), argv
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["log.json"]
    for command in ("features", "abstract"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--log", str(log), "--object-type", "t", "--out", str(tmp_path / command)]) == 0
        assert caught == [] and capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "flags",
    [
        ["--n-trees", "0"],
        ["--n-trees=1000000000000"],  # was a run that never ended
        ["--subsample", "1"],
        ["--lof-k", "0", "--detector", "lof"],
        ["--reduce-k", "0", "--reducer", "pca"],
        ["--top-k", "-3"],
        ["--max-events", "0"],
        ["--min-variance", "nan"],
    ],
)
def test_detect_rejects_invalid_knobs(generated, tmp_path, capsys, flags):
    out = tmp_path / "det"
    code = main(["detect", "--log", str(generated / "log.json"), "--object-type", "order", *flags,
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "scores.csv").exists()


@pytest.mark.parametrize(
    "doc",
    [
        ocel_doc(objects=[{"id": "o1", "type": "order", "attributes": [{"name": "x", "value": float("nan")}]}]),
        ocel_doc(objects=[{"id": 1, "type": "order"}, {"id": "o1", "type": "order"}]),
        ocel_doc(events=[{"id": "e1", "type": "A", "time": "2024-01-01T00:00:00Z"},
                         {"id": 2, "type": "A", "time": "2024-01-01T00:00:00Z"}]),
    ],
    ids=["nan-attribute", "int-object-id", "int-event-id"],
)
def test_malformed_log_is_one_line_validation_error(tmp_path, capsys, doc):
    log = tmp_path / "bad.json"
    log.write_bytes(doc)
    code = main(["features", "--log", str(log), "--object-type", "order", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_invalid_utf8_log_is_one_line_json_error(tmp_path, capsys):
    log = tmp_path / "bad.json"
    log.write_bytes(b"\xff{}")
    out = tmp_path / "o"
    code = main(["features", "--log", str(log), "--object-type", "order", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")
    assert not out.exists()


@pytest.mark.parametrize("n_orders", [300, 1000])
def test_load_log_peak_stays_within_five_times_the_file(tmp_path, n_orders):
    # The stream reads the text through a window of a chunk or two, a run of
    # entries of at most 16k characters at a time, and frees a run's JSON
    # trees once it has read them, so a read holds little more than the log:
    # 0.65x the file at 1,000 orders and 0.67-0.72x at 300, where a run's
    # trees weigh more beside the log (0.65x at 8k), also where the entries
    # of the last objects and events lists are read again (events first,
    # objects twice, a fault of the log), and where a fault ends the read
    # (0.11-0.36x for a missing type in the first object). An emoji widens
    # the window's 64 kB chunks to 4 bytes a character: 0.85x for the
    # 300-order log, and 1.12x with events first, whose chunk with the emoji
    # comes once the columns are full (0.65x at 1,000 orders). The log
    # itself, its attributes stored as columns, is 0.36-0.37x the file. A
    # JSON fault near the end peaks at 0.51-0.67x and a UTF-8 fault in the
    # middle at 0.33-0.53x. A JSON fault in the first object grows the window
    # to hold the rest of the text: 2.02-2.07x.
    out = tmp_path / "gen"
    assert main(["generate", "--n-orders", str(n_orders), "--maverick-rate", "0.05", "--postmortem-rate", "0.03",
                 "--double-invoice-rate", "0.05", "--reopen-rate", "0.02", "--seed", "1", "--out", str(out)]) == 0
    path = out / "log.json"
    written = path.read_bytes()
    faulty = [unknown_last_object, duplicate_object_id, missing_first_type, missing_last_comma, not_utf8_in_the_middle,
              broken_first_key]
    bounds = [(None, 0.9), (offset_last_stamp, 0.9), (non_ascii_object_id, 0.9), (cjk_object_id, 0.9),
              (emoji_object_id, 0.9), (events_first, 0.9), (lambda data: events_first(cjk_object_id(data)), 0.9),
              (lambda data: events_first(emoji_object_id(data)), 1.2), (objects_twice, 0.9), (unknown_last_object, 0.9),
              (duplicate_object_id, 0.9), (missing_first_type, 0.9), (missing_last_comma, 0.7),
              (not_utf8_in_the_middle, 0.6), (broken_first_key, 2.2)]
    for rewrite, bound in bounds:
        path.write_bytes(written if rewrite is None else rewrite(written))
        tracemalloc.start()
        try:
            try:
                log = ocad.cli._load_log(str(path))
            except MalformedDocument:
                assert rewrite in faulty
                log = None
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * path.stat().st_size, rewrite
        if log is not None:
            assert live <= 0.5 * path.stat().st_size, rewrite
        del log


def test_too_wide_feature_family_is_rejected_before_writing(tmp_path, capsys, monkeypatch):
    # An id-like string attribute: one one-hot column per order, 20 x 20 cells.
    objects = [_order(f"o{i:02d}", [("ref", f"r{i:02d}")]) for i in range(20)]
    events = [_event(f"e{i:02d}", "Create", 1, i % 10, f"o{i:02d}") for i in range(20)]
    log = tmp_path / "log.json"
    log.write_bytes(ocel_doc(events=events, objects=objects))
    monkeypatch.setattr(ocad.features, "MAX_COUNT_CELLS", 399)
    out = tmp_path / "o"
    code = main(["features", "--log", str(log), "--object-type", "order", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: feature family ('strvalue', 'ref') would be 20 rows x 20 columns, over the bound of 399 cells\n")
    assert not out.exists()
    monkeypatch.setattr(ocad.features, "MAX_COUNT_CELLS", 400)
    assert main(["features", "--log", str(log), "--object-type", "order", "--out", str(out)]) == 0


def test_feature_width_bound_admits_the_bench_and_rejects_an_id_like_attribute_at_8k():
    # The widest bench block is dfg on order at 8k orders; an id-like string
    # attribute on the 32,800 objects of the 8k log needs 1.08e9 cells.
    assert 8000 * 10 <= ocad.features.MAX_COUNT_CELLS < 32_800 ** 2


def test_too_wide_partner_gather_is_rejected_before_writing(tmp_path, capsys, monkeypatch):
    # One event over 20 orders: gathering their partners takes 20 x 20 entries.
    event = {"id": "e0", "type": "Create", "time": "2024-01-01T00:00:00Z",
             "relationships": [{"objectId": f"o{i:02d}", "qualifier": ""} for i in range(20)]}
    log = tmp_path / "log.json"
    log.write_bytes(ocel_doc(events=[event], objects=[_order(f"o{i:02d}") for i in range(20)]))
    monkeypatch.setattr(ocad.ocel, "MAX_PARTNER_ENTRIES", 399)
    out = tmp_path / "o"
    assert main(["features", "--log", str(log), "--object-type", "order", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: gathering the partners of 20 objects would take 400 entries, over the bound of 399\n")
    assert not out.exists()
    monkeypatch.setattr(ocad.ocel, "MAX_PARTNER_ENTRIES", 400)
    with pytest.warns(VarianceFallbackWarning):  # every order has the same features
        assert main(["features", "--log", str(log), "--object-type", "order", "--out", str(out)]) == 0


def test_partner_bound_admits_the_bench_and_rejects_one_event_over_5000_objects():
    # The widest bench gather is order in the 8k P2P log.
    assert 49_600 <= ocad.ocel.MAX_PARTNER_ENTRIES < 5_000 ** 2


def _lof_is_rejected_over_the_entry_bound(log, out, capsys, monkeypatch, k, entries):
    """``detect`` at ``k`` on the 40 orders of ``log`` exits 1 before LOF
    allocates under a bound one below ``entries``, and runs at ``entries``."""
    argv = ["detect", "--log", str(log), "--object-type", "order", "--reducer", "fastmap", "--lof-k", str(k),
            "--out", str(out)]
    with monkeypatch.context() as patched:
        patched.setattr(ocad.detect, "MAX_LOF_ENTRIES", entries - 1)
        patched.setattr(ocad.detect, "_neighborhoods", lambda *args: pytest.fail("allocated over the bound"))
        assert main(argv) == 1
        assert capsys.readouterr().err == (f"error: lof with k={k} on 40 rows counts as {entries} neighbor entries, "
                                           f"at least 20 a row, over the bound of {entries - 1}\n")
        assert not out.exists()
    monkeypatch.setattr(ocad.detect, "MAX_LOF_ENTRIES", entries)
    assert main(argv) == 0


def test_lof_over_the_entry_bound_is_rejected_before_writing(generated, tmp_path, capsys, monkeypatch):
    # 40 orders at k = 5 count as 800 neighbor entries, 20 a row
    _lof_is_rejected_over_the_entry_bound(generated / "log.json", tmp_path / "o", capsys, monkeypatch, 5, 800)


def test_lof_counts_a_row_as_20_entries_below_k_20(generated, tmp_path, capsys, monkeypatch):
    # Below k = 20 a row's own arrays weigh more than its entries: 331 bytes
    # at k = 1 on 40,000 rows. Above it, rows times k.
    _lof_is_rejected_over_the_entry_bound(generated / "log.json", tmp_path / "o", capsys, monkeypatch, 1, 800)
    _lof_is_rejected_over_the_entry_bound(generated / "log.json", tmp_path / "o25", capsys, monkeypatch, 25, 1000)


def test_lof_peak_per_entry_keeps_the_entry_bound_within_4_gb():
    # k = 20, where the rows' own arrays add most to an entry: 38.6 bytes
    # (at k = n - 1 about 25); at k = 1, which counts a row as 20 entries,
    # the rows' own arrays take about 330 bytes a row
    F = make_matrix(np.random.default_rng(0).normal(size=(8000, 8)))
    for k in (20, 1):
        tracemalloc.start()
        try:
            ocad.detect.lof(F, k=k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 44 * 8000 * 20, k
    assert 8000 * 20 <= ocad.detect.MAX_LOF_ENTRIES and ocad.detect.MAX_LOF_ENTRIES * 44 <= 4_000_000_000


def test_log_over_the_input_bound_is_rejected_before_the_read(generated, tmp_path, capsys, monkeypatch):
    log = generated / "log.json"
    size = log.stat().st_size
    monkeypatch.setattr(ocad.cli, "MAX_INPUT_BYTES", size - 1)
    monkeypatch.setattr(ocad.cli, "parse_ocel_json", lambda data: pytest.fail("read a log over the bound"))
    out = tmp_path / "o"
    assert main(["features", "--log", str(log), "--object-type", "order", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: log {str(log)!r} is {size} bytes, over the bound of {size - 1} bytes\n"
    assert not out.exists()
    missing = tmp_path / "missing.json"
    assert main(["features", "--log", str(missing), "--object-type", "order", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"i/o error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    monkeypatch.undo()
    monkeypatch.setattr(ocad.cli, "MAX_INPUT_BYTES", size)
    assert main(["features", "--log", str(log), "--object-type", "order", "--out", str(out)]) == 0
    # A pipe's size bounds nothing, and the parse may read the log twice, so a
    # --log that is not a regular file is refused before it is opened.
    env = {**os.environ, "PYTHONPATH": str(Path(ocad.__file__).resolve().parents[1])}
    piped = tmp_path / "piped"
    proc = subprocess.run([sys.executable, "-m", "ocad.cli", "features", "--log", "/dev/stdin", "--object-type",
                           "order", "--out", str(piped)], input=events_first(log.read_bytes()), env=env,
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (2, b"i/o error: log '/dev/stdin' is not a regular file\n")
    assert not piped.exists()


def test_input_bound_keeps_the_parse_within_4_gb_and_admits_a_405_mb_log():
    # The bound was set for 7.5 bytes per byte of log, the json.loads tree of
    # a log with an emoji that the parse once read; the 128k-order log of
    # ROADMAP.md is 405 MB. test_load_log_peak_stays_within_five_times_the_file
    # bounds every read of a generated log below that, at up to 2.2.
    assert 405_000_000 <= ocad.cli.MAX_INPUT_BYTES and 7.5 * ocad.cli.MAX_INPUT_BYTES <= 4_000_000_000


def test_too_many_orders_are_rejected_before_writing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ocad.synthgen, "MAX_ORDERS", 5)
    out = tmp_path / "gen"
    for variant in ("p2p", "blocked-invoices"):
        assert main(["generate", "--variant", variant, "--n-orders", "6", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: n_orders must be in 1..5, got 6\n"
        assert not out.exists()
    assert main(["generate", "--n-orders", "5", "--out", str(out)]) == 0


def test_generate_refuses_a_log_over_the_input_bound(tmp_path, capsys, monkeypatch):
    # A log that every other command would refuse to read is not written.
    argv = ["generate", "--n-orders", "5", "--seed", "1", "--out"]
    assert main([*argv, str(tmp_path / "gen")]) == 0
    written = (tmp_path / "gen" / "log.json").read_bytes()
    out = tmp_path / "o"
    monkeypatch.setattr(ocad.cli, "MAX_INPUT_BYTES", len(written) - 1)
    assert main([*argv, str(out)]) == 1
    assert capsys.readouterr().err == (f"error: the log would be {len(written)} bytes, "
                                       f"over the --log bound of {len(written) - 1} bytes\n")
    assert not out.exists()
    monkeypatch.setattr(ocad.cli, "MAX_INPUT_BYTES", len(written))
    assert main([*argv, str(out)]) == 0
    assert (out / "log.json").read_bytes() == written


def test_generate_refuses_rates_that_round_up_past_the_orders(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "--n-orders", "3", "--maverick-rate", "0.5", "--double-invoice-rate", "0.5",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: the anomaly rates plant 2 DoubleInvoice + 2 MaverickBuying = 4 orders, "
                                       "more than n_orders 3\n")
    assert not out.exists()


def test_generate_peak_per_order_keeps_max_orders_within_4_gb(tmp_path):
    # 7.5 kB per order at 1k orders and 5.7 kB at 8k; the per-order peak
    # falls with the count, so 1,000 orders bound it from above. The bound
    # leaves 20 % over the 7,477 bytes measured.
    tracemalloc.start()
    try:
        assert main(["generate", "--n-orders", "1000", "--maverick-rate", "0.05", "--postmortem-rate", "0.03",
                     "--double-invoice-rate", "0.05", "--reopen-rate", "0.02", "--seed", "1",
                     "--out", str(tmp_path / "gen")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1000 * 9_000
    assert ocad.synthgen.MAX_ORDERS * 16_000 <= 4_000_000_000


def test_readme_states_each_bound_as_the_code_holds_it():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for module, name in [(ocad.synthgen, "MAX_ORDERS"), (ocad.detect, "MAX_TREES"), (ocad.features, "MAX_COUNT_CELLS"),
                         (ocad.ocel, "MAX_PARTNER_ENTRIES"), (ocad.cli, "MAX_INPUT_BYTES"),
                         (ocad.detect, "MAX_LOF_ENTRIES"), (ocad.cli, "MAX_LLM_TIMEOUT")]:
        qualified = f"{module.__name__.removeprefix('ocad.')}.{name}"
        stated = re.findall(rf"`{re.escape(qualified)}`\s+\(([\d,]+)", readme)
        assert stated and set(stated) == {f"{getattr(module, name):,}"}, (qualified, stated)


@pytest.mark.parametrize(
    "flags",
    [
        ["--mean-gap", "inf"],
        ["--mean-gap", "nan"],
        ["--mean-gap", "1e308"],
        ["--maverick-rate", "nan"],
        ["--reopen-rate", "-0.5"],
        ["--n-orders", str(10**12)],  # was a MemoryError traceback
        ["--n-orders", str(2**63)],  # was a loop that grew until killed
        ["--blocked-rate", "0.1"],  # the p2p variant plants no blocked invoices
        ["--seed", "-1"],  # was numpy's line, which does not name the knob
    ],
)
def test_generate_rejects_invalid_knobs(tmp_path, capsys, flags):
    out = tmp_path / "gen"
    assert main(["generate", "--n-orders", "5", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_generate_drops_zero_rates(tmp_path):
    out = tmp_path / "gen"
    assert main(["generate", "--n-orders", "5", "--maverick-rate", "0", "--out", str(out)]) == 0
    assert json.loads((out / "run.json").read_text())["params"]["rates"] == {}


@pytest.mark.parametrize(
    "argv",
    [
        ["abstract", "--whisker", "nan"],
        ["abstract", "--whisker", "-5"],
        ["abstract", "--raw-table", "--max-rows", "-1"],
        ["aggregate", "--top-n", "-1"],
        ["abstract", "--oracle", "llm", "--llm-timeout", "nan"],
        ["abstract", "--oracle", "llm", "--llm-timeout", "inf"],
        ["abstract", "--oracle", "llm", "--llm-timeout", "0"],
        ["abstract", "--oracle", "llm", "--llm-timeout", "-1"],
        ["abstract", "--oracle", "llm", "--llm-timeout", "1e10"],  # was a socket's OverflowError traceback
        ["detect", "--seed", "-1"],  # was numpy's line once the log was read
        ["features", "--seed", "-1"],  # was recorded
    ],
)
def test_report_commands_reject_invalid_knobs(generated, tmp_path, capsys, monkeypatch, argv):
    """Knobs are checked before the log is read."""
    monkeypatch.setattr(ocad.cli, "_load_log", lambda path: pytest.fail("read the log before checking the knobs"))
    out = tmp_path / "rep"
    code = main([argv[0], "--log", str(generated / "log.json"), "--object-type", "order", *argv[1:],
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [["detect"], ["detect", "--bogus"]])
def test_usage_error_exits_2_without_traceback(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ocad detect") and "error: " in err and "Traceback" not in err


def test_pipeline_knobs_are_checked_before_the_log_is_read(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["features", "--log", str(tmp_path / "nope.json"), "--object-type", "order", "--n-trees", "0",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: n_trees must be >= 1, got 0\n"
    assert not out.exists()


def test_missing_input_is_io_error(tmp_path):
    code = main(["features", "--log", str(tmp_path / "nope.json"), "--object-type", "order", "--out", str(tmp_path / "o")])
    assert code == 2


def test_aggregate_top_n_zero(generated, tmp_path):
    out = tmp_path / "agg"
    code = main(
        [
            "aggregate",
            "--log", str(generated / "log.json"),
            "--object-type", "order",
            "--top-n", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "feature_scores.csv").read_text() == "feature,count,fea_score\n"


def test_aggregate_report(generated, tmp_path):
    out = tmp_path / "agg"
    code = main(
        [
            "aggregate",
            "--log", str(generated / "log.json"),
            "--object-type", "order",
            "--top-n", "10",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "feature_scores.csv").read_text().splitlines()
    assert len(lines) == 11
    assert "FEA_SCORE" in (out / "feature_scores.txt").read_text()


def test_abstract_statistical(generated, tmp_path):
    out = tmp_path / "abs"
    code = main(
        [
            "abstract",
            "--log", str(generated / "log.json"),
            "--object-type", "order",
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = (out / "feature_summary.txt").read_text()
    assert "median=" in summary
    verdicts = (out / "oracle_verdicts.csv").read_text().splitlines()
    assert verdicts[0] == "feature,fence_lo,fence_hi,rationale"
    assert len(verdicts) > 1


def test_abstract_raw_table_flag(generated, tmp_path):
    out = tmp_path / "abs2"
    code = main(
        [
            "abstract",
            "--log", str(generated / "log.json"),
            "--object-type", "order",
            "--raw-table",
            "--max-rows", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    text = (out / "feature_summary.txt").read_text()
    assert "object_id\t" in text
    assert "rows elided" in text


@pytest.mark.parametrize(
    "bad_id",
    ["x/../../../../escaped", "a\x00b", "\ud800", "o" * 250],
    ids=["path-escape", "nul", "lone-surrogate", "too-long"],
)
def test_detect_rejects_unusable_output_name_before_writing(tmp_path, capsys, bad_id):
    """Lifecycle file names embed object ids; an id that cannot be one file in
    --out/lifecycles is a one-line validation error and nothing is written."""
    ids = ["o1", "o2", "o3", bad_id]
    events = [
        {"id": f"e{i}{k}", "type": act, "time": f"2024-01-0{i + 1}T00:0{k}:00Z",
         "relationships": [{"objectId": o, "qualifier": ""}]}
        for i, o in enumerate(ids) for k, act in enumerate("AB")
    ]
    log = tmp_path / "log.json"
    log.write_bytes(ocel_doc(events=events, objects=[{"id": o, "type": "order"} for o in ids]))
    out = tmp_path / "run" / "out"
    code = main(["detect", "--log", str(log), "--object-type", "order", "--top-k", "4", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["log.json"]


def test_abstract_llm_failure_writes_nothing(generated, tmp_path, capsys, monkeypatch):
    def fail(**_):
        raise LlmTimeout("no reply from the endpoint within 1s")

    monkeypatch.setattr(ocad.cli, "llm_oracle", fail)
    out = tmp_path / "abs"
    code = main(["abstract", "--log", str(generated / "log.json"), "--object-type", "order", "--oracle", "llm",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


_IMPORT_GUARD = """
import json, sys
before = set(sys.modules)
from ocad.cli import main
out, log = sys.argv[1], sys.argv[1] + "/gen/log.json"
runs = [["generate", "--n-orders", "40", "--maverick-rate", "0.1", "--seed", "3", "--out", out + "/gen"],
        ["features", "--log", log, "--object-type", "order"],
        ["detect", "--log", log, "--object-type", "order"],
        ["detect", "--log", log, "--object-type", "order", "--reducer", "fastmap"],
        ["detect", "--log", log, "--object-type", "order", "--reducer", "pca"],
        ["aggregate", "--log", log, "--object-type", "invoice", "--propagate-from", "order"],
        ["abstract", "--log", log, "--object-type", "order", "--raw-table"]]
codes = [main(argv + (["--out", f"{out}/{i}"] if i else [])) for i, argv in enumerate(runs)]
print(json.dumps([codes, sorted({m.split(".")[0] for m in set(sys.modules) - before})]))
"""


def test_commands_import_nothing_beyond_numpy_and_the_standard_library(tmp_path):
    """numpy is the one runtime dependency that importing the CLI and running
    the pipeline may import; requests waits for the LLM oracle's transport, so
    it is not allowed either. Modules a site hook imports at start-up do not
    count: the guard compares with ``sys.modules`` before ocad loads."""
    env = {**os.environ, "PYTHONPATH": str(Path(ocad.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)], env=env, capture_output=True,
                          text=True, check=True)
    codes, imported = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * 7, proc.stderr
    allowed = set(sys.stdlib_module_names) | {"numpy", "ocad", "cython_runtime"}
    assert [m for m in imported if m not in allowed and not m.startswith("_cython_")] == []


def _event(eid, activity, day, hour, obj):
    return {"id": eid, "type": activity, "time": f"2024-01-0{day}T0{hour}:00:00Z",
            "relationships": [{"objectId": obj, "qualifier": ""}]}


def _order(oid, attrs=()):
    return {"id": oid, "type": "order",
            "attributes": [{"name": n, "time": "1970-01-01T00:00:00Z", "value": v} for n, v in attrs]}


def test_names_with_underscores_keep_headers_and_get_exact_labels(tmp_path):
    """Activity, attribute and value names that contain ``_`` but do not
    collide keep their header strings, and the report splits a DFG edge at
    the activity boundary, not at the first ``_``."""
    terms = ["net_30"] * 3 + ["net_60"] * 3
    objects = [_order(f"o{i}", [("pay_term", t)]) for i, t in enumerate(terms)]
    events = [
        _event(f"e{i}{k}", a, i + 1, k, f"o{i}")
        for i in range(6) for k, a in enumerate(["Create_PO", "Pay" if i < 4 else "Cancel_PO"])
    ]
    log = tmp_path / "log.json"
    log.write_bytes(ocel_doc(events=events, objects=objects))
    assert main(["features", "--log", str(log), "--object-type", "order", "--out", str(tmp_path / "f")]) == 0
    header = (tmp_path / "f" / "features.csv").read_text().splitlines()[0]
    assert header == (
        "object_id,strvaluepay_term_net_30,strvaluepay_term_net_60,lifecyclecontainsCancel_PO,"
        "lifecyclecontainsPay,lifecyclestarttime,lifecycleendtime,dfg_Create_PO_Cancel_PO,dfg_Create_PO_Pay"
    )
    assert main(["aggregate", "--log", str(log), "--object-type", "order", "--top-n", "50",
                 "--out", str(tmp_path / "a")]) == 0
    lines = (tmp_path / "a" / "feature_scores.csv").read_text().splitlines()
    labels = {line.rsplit(",", 2)[0] for line in lines[1:]}
    assert {"(dfg Create_PO -> Pay = 1)", "(dfg Create_PO -> Cancel_PO = 0)", "(strvalue pay_term_net_30 = 1)",
            "(lifecyclecontains Cancel_PO = 1)"} <= labels


def _amount_log(path, amounts):
    """One order per amount, each with two events."""
    objects = [_order(f"o{i:02d}", [("amount", a)]) for i, a in enumerate(amounts)]
    events = [_event(f"e{i:02d}{k}", "AB"[k], i % 9 + 1, k * (1 + i % 3), f"o{i:02d}")
              for i in range(len(amounts)) for k in range(2)]
    path.write_bytes(ocel_doc(events=events, objects=objects))
    return path


_OVERFLOW_AMOUNTS = {
    # four of 30 orders at +-1.7e308: max - min overflows
    "huge": [1.7e308 if i in (3, 11) else -1.7e308 if i in (7, 19) else 100.0 + i for i in range(30)],
    # max - min is finite, 2 * (max - min) is not
    "mixed": [1e200 if i == 5 else -1.7e308 if i == 9 else 100.0 + i for i in range(30)],
}


@pytest.mark.parametrize("argv", [["features"], ["detect"], ["detect", "--detector", "lof", "--min-variance", "inf"],
                                  ["aggregate"]])
@pytest.mark.parametrize("case", sorted(_OVERFLOW_AMOUNTS))
def test_a_column_too_wide_to_normalize_is_rejected(tmp_path, capsys, case, argv):
    """Finite attribute values whose span overflows the normalization are a
    one-line validation error naming the column, and nothing is written."""
    log = _amount_log(tmp_path / "log.json", _OVERFLOW_AMOUNTS[case])
    code = main([*argv, "--log", str(log), "--object-type", "order", "--out", str(tmp_path / "run" / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: column 'numvalueamount' spans ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["log.json"]


_EXTREMES = [1.7e308, -1.7e308, 8.9e307, -8.9e307, 1e200, -1e200, 5e-324, 0.0]


@given(amounts=st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EXTREMES),
                        min_size=12, max_size=12))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_finite_amounts_give_finite_outputs_or_one_error_line(tmp_path_factory, amounts):
    run = tmp_path_factory.mktemp("amounts")
    log = _amount_log(run / "log.json", amounts)
    for command in ("features", "detect"):
        out = run / command
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--log", str(log), "--object-type", "order", "--out", str(out)])
        assert code in (0, 1), err.getvalue()
        if code:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not out.exists()
        else:
            text = "".join(p.read_text() for p in out.rglob("*") if p.is_file())
            assert not re.search(r"\b(nan|inf)\b", text, re.IGNORECASE)


_COLLISIONS = {
    # attribute a_b = c and attribute a = b_c both give strvaluea_b_c
    "strvalue": (
        [_order(f"o{i}", [("a_b", "c"), ("a", "b_c")]) for i in range(3)],
        [_event(f"e{i}{k}", "AB"[k], i + 1, k * (i + 1), f"o{i}") for i in range(3) for k in range(2)],
        [("strvalue", "a_b", "c"), ("strvalue", "a", "b_c")],
    ),
    # edge X_Y -> Z and edge X -> Y_Z both give dfg_X_Y_Z
    "dfg": (
        [_order(f"o{i}") for i in range(3)],
        [_event(f"e{i}{k}", a, i + 1, k, f"o{i}")
         for i, acts in enumerate([("X_Y", "Z"), ("X", "Y_Z"), ("X", "Z")]) for k, a in enumerate(acts)],
        [("dfg", "X_Y", "Z"), ("dfg", "X", "Y_Z")],
    ),
}


@pytest.mark.parametrize("command", ["features", "detect", "aggregate"])
@pytest.mark.parametrize("case", sorted(_COLLISIONS))
def test_colliding_column_names_are_rejected(tmp_path, capsys, case, command):
    """Two different columns that would write one header are a one-line
    validation error naming both, and nothing is written."""
    objects, events, keys = _COLLISIONS[case]
    log = tmp_path / "log.json"
    log.write_bytes(ocel_doc(events=events, objects=objects))
    code = main([command, "--log", str(log), "--object-type", "order", "--out", str(tmp_path / "run" / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(repr(k) in err for k in keys)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["log.json"]


def test_variance_fallback_warns_and_keeps_every_column(generated, tmp_path):
    log = parse_ocel_json((generated / "log.json").read_bytes())
    with pytest.warns(VarianceFallbackWarning, match=r"^min_variance inf would drop all \d+ columns"):
        F, Fn = build_matrix(log, PipelineParams(object_type="order", min_variance=math.inf))
    assert feature_csv_bytes(Fn) == feature_csv_bytes(normalize(F))

    trees = {}
    for value in ("inf", "-inf"):  # -inf keeps every column without falling back
        trees[value] = tmp_path / value
        with pytest.warns(VarianceFallbackWarning) if value == "inf" else contextlib.nullcontext():
            assert main(["features", "--log", str(generated / "log.json"), "--object-type", "order",
                         f"--min-variance={value}", "--out", str(trees[value])]) == 0
    assert _dir_digest(trees["inf"], skip={"run.json"}) == _dir_digest(trees["-inf"], skip={"run.json"})


def test_warning_prints_one_line_without_a_source_path(generated, tmp_path):
    # The default warnings format names the file and line that warned, so
    # stderr would change with unrelated edits.
    env = {**os.environ, "PYTHONPATH": str(Path(ocad.__file__).resolve().parents[1])}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "ocad.cli", "features", "--log", str(generated / "log.json"),
                           "--object-type", "order", "--min-variance=inf", "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == "warning: min_variance inf would drop all 22 columns; using the unfiltered matrix\n"


# ------------------------------------------------------------ argv fuzzing

_FLOATS = ["nan", "inf", "-inf", "-1", "-0.0", "0", "0.5", "3", "1e308"]
_INTS = ["-1", "0", "1", "2", "7", str(10**12), str(2**63), str(10**30)]
_SUBCOMMANDS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.fixture(scope="module")
def fuzz_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz-log")
    assert main(["generate", "--n-orders", "20", "--maverick-rate", "0.1", "--double-invoice-rate", "0.1",
                 "--seed", "5", "--out", str(out)]) == 0
    return out / "log.json"


def _values(action, log):
    """Values to try for one option of the parser, valid and invalid."""
    if action.choices:
        return [*action.choices, "bogus"]
    if action.type is int:
        return _INTS
    if action.type is float:
        return _FLOATS
    types = ["order", "invoice", "payment", "requisition", "nosuch", ""]
    return {"log": [str(log)] * 3 + [str(log.parent / "missing.json"), str(log.parent)], "object_type": types,
            "propagate_from": types, "llm_endpoint": ["http://127.0.0.1:9/"], "llm_model": ["m"]}[action.dest]


@st.composite
def _argvs(draw, log):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [command]
    for action in _SUBCOMMANDS[command]._actions:
        if not action.option_strings or action.dest in ("help", "out"):
            continue
        if not action.required and draw(st.integers(0, 3)):  # about a quarter of the optional flags
            continue
        if action.nargs == 0:
            argv.append(action.option_strings[0])
        else:  # "--flag=value", so that "-inf" reaches the program as a value
            argv.append(f"{action.option_strings[0]}={draw(st.sampled_from(_values(action, log)))}")
    return argv


@pytest.mark.filterwarnings("ignore::ocad.errors.VarianceFallbackWarning")
@given(data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_argv_exits_0_1_or_2_without_traceback(fuzz_log, tmp_path_factory, data):
    argv = data.draw(_argvs(fuzz_log)) + ["--out", str(tmp_path_factory.mktemp("run") / "out")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            mock.patch.object(ocad.cli, "llm_oracle", return_value="reply"):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert gc.isenabled()
