"""The benchmark's hooks stay in step with the package.

``perfbench/tracer.py`` wraps functions by name, and ``perfbench/run.py``
reports per-layer metrics by those names. A refactor that deletes or renames
one would break the traced run, or leave its metric reading 0.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import ocad
from ocad.ocel import OcelLog, serialize_ocel_json
from ocad.synthgen import SynthConfig, generate_p2p

SRC = Path(ocad.__file__).resolve().parents[1]
BENCH = SRC.parent / "perfbench"


def test_tracer_runs_a_detect_command(tmp_path):
    log, _ = generate_p2p(SynthConfig(n_orders=30, seed=1))
    (tmp_path / "log.json").write_bytes(serialize_ocel_json(log))
    spans = tmp_path / "spans.json"
    argv = ["detect", "--log", str(tmp_path / "log.json"), "--object-type", "order", "--reducer", "fastmap",
            "--top-k", "2", "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(spans), *argv],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    names = {span[0] for span in doc["spans"]}
    assert {"ocel.parse_ocel_json", "ocel.interaction_sets", "detect.lof"} <= names


def test_tracer_runs_a_generate_command(tmp_path):
    # The traced `ocad generate` is what the bench's set-up times; the tracer
    # counts len() of what serialize_ocel_json returns as the bytes written.
    spans = tmp_path / "spans.json"
    argv = ["generate", "--n-orders", "30", "--maverick-rate", "0.1", "--seed", "1", "--out", str(tmp_path / "gen")]
    proc = subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(spans), *argv],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    assert doc["exit_code"] == 0
    names = {span[0] for span in doc["spans"]}
    assert {"synthgen.generate_p2p", "ocel.serialize_ocel_json"} <= names
    assert doc["counts"]["ocel.document_bytes"] == (tmp_path / "gen" / "log.json").stat().st_size


def _load(name, monkeypatch):
    """The top-level module ``perfbench/<name>.py``, as the bench imports it."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_every_reported_function_is_traced(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    run = _load("run", monkeypatch)  # its `from tracer import summarize` finds the module above

    names = {n for group in run.SELF_TIMES.values() for n in group} | set(run.CALLS.values())
    names.discard("cli.import")  # the tracer's own span around importing ocad.cli
    for name in sorted(names):
        layer, attr = name.split(".")
        assert layer in tracer.LAYERS, name
        if layer == "ocel" and attr in tracer.TRACED_METHODS:
            assert inspect.isfunction(getattr(OcelLog, attr, None)), name
        else:
            # The tracer wraps a module's public functions defined in it.
            fn = getattr(importlib.import_module(f"ocad.{layer}"), attr, None)
            assert inspect.isfunction(fn) and fn.__module__ == f"ocad.{layer}", name
    for method in tracer.TRACED_METHODS:
        assert inspect.isfunction(getattr(OcelLog, method, None)), method
