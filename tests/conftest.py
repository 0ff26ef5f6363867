"""Shared helpers: tiny hand-built logs and a random log generator."""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest

from ocad.features import FeatureMatrix
from ocad.ocel import OcelLog


def build_log(events, objects):
    """events: (id, activity, time, [object ids], attrs?); objects: (id, type, attrs?)."""
    ev = [(e[0], e[1], e[2], e[3], e[4] if len(e) > 4 else {}) for e in events]
    ob = [(o[0], o[1], o[2] if len(o) > 2 else {}) for o in objects]
    return OcelLog.build(ev, ob)


def collections_during(fn, *args):
    """Number of cyclic garbage collector passes that start while ``fn(*args)`` runs."""
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        fn(*args)
    finally:
        gc.callbacks.remove(hook)
    return len(starts)


def make_matrix(values, row_ids=None, columns=None, object_type="t"):
    """``columns`` holds column keys; a plain string ``name`` is the key ``(name,)``."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    n, d = values.shape
    return FeatureMatrix(
        object_type=object_type,
        row_ids=tuple(row_ids or (f"o{i:03d}" for i in range(n))),
        keys=tuple(c if isinstance(c, tuple) else (c,) for c in columns or (f"f{j}" for j in range(d))),
        values=values,
    )


def ocel_doc(events=(), objects=()):
    """Minimal OCEL 2.0 JSON document as bytes."""
    return json.dumps(
        {
            "objectTypes": [],
            "eventTypes": [],
            "objects": list(objects),
            "events": list(events),
        }
    ).encode("utf-8")


def random_log(seed, n_objects=12, n_events=20, n_types=3, n_activities=5, activities=None, tie_share=0.0,
               wide_share=0.0):
    """Small random log exercising shared events and attributes.

    ``activities`` replaces the ``act<k>`` names; with ``tie_share`` > 0 about
    that share of the events repeat the previous event's timestamp. An event
    relates 0-3 objects, or with ``wide_share`` > 0, for about that share of
    the events, up to every object.
    """
    rng = np.random.default_rng(seed)
    names = list(activities) if activities else [f"act{k}" for k in range(n_activities)]
    objects = []
    for i in range(n_objects):
        attrs = {"amount": round(float(rng.uniform(1, 100)), 2)}
        if rng.random() < 0.5:
            attrs["grade"] = str(rng.choice(["x", "y", "z"]))
        objects.append((f"o{i:03d}", f"type{int(rng.integers(n_types))}", attrs))
    events = []
    t = 1000.0
    for i in range(n_events):
        if not (tie_share and rng.random() < tie_share):
            t = round(t + float(rng.exponential(10.0)), 3)
        wide = wide_share and rng.random() < wide_share
        related = rng.choice(n_objects, size=int(rng.integers(0, n_objects + 1 if wide else 4)), replace=False)
        events.append(
            (
                f"e{i:03d}",
                names[int(rng.integers(len(names)))],
                t,
                [f"o{int(j):03d}" for j in related],
                {},
            )
        )
    return build_log(events, objects)


@pytest.fixture
def p2p_small():
    from ocad.synthgen import AnomalyKind, SynthConfig, generate_p2p

    cfg = SynthConfig(
        n_orders=12,
        anomaly_rates={
            AnomalyKind.MAVERICK_BUYING: 0.15,
            AnomalyKind.DOUBLE_INVOICE: 0.15,
            AnomalyKind.POST_MORTEM_PR_CHANGE: 0.1,
            AnomalyKind.REOPEN_LONG_GAP: 0.1,
        },
        seed=11,
    )
    return generate_p2p(cfg)
