"""Shared helpers: tiny hand-built logs and a random log generator."""

from __future__ import annotations

import gc
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from ocad.features import FeatureMatrix
from ocad.ocel import OcelLog


def build_log(events, objects):
    """events: (id, activity, time, [object ids], attrs?); objects: (id, type, attrs?)."""
    ev = [(e[0], e[1], e[2], e[3], e[4] if len(e) > 4 else {}) for e in events]
    ob = [(o[0], o[1], o[2] if len(o) > 2 else {}) for o in objects]
    return OcelLog.build(ev, ob)


def attribute_dicts(log, kind):
    """Each object's (``kind`` "obj") or event's ("ev") attributes as a
    name-to-value dict, in the log's order, decoded from its slot columns:
    a float, or a str for a slot with a string code."""
    ptr, name, num, text = (getattr(log, f"{kind}_att_{f}").tolist() for f in ("ptr", "name", "num", "str"))
    return [{log.att_names[name[k]]: num[k] if text[k] < 0 else log.att_strings[text[k]] for k in range(lo, hi)}
            for lo, hi in zip(ptr, ptr[1:])]


def log_dicts(log):
    """The log's fields as plain dicts keyed by id: ``otyp`` and ``ovmap``
    per object; ``act``, ``time``, ``omap`` (a frozenset of object ids) and
    ``vmap`` per event."""
    ptr, related = log.ev_ptr.tolist(), [log.objects[c] for c in log.ev_obj.tolist()]
    return SimpleNamespace(
        otyp=dict(zip(log.objects, (log.object_types[t] for t in log.obj_type.tolist()))),
        ovmap=dict(zip(log.objects, attribute_dicts(log, "obj"))),
        act=dict(zip(log.events, (log.activities[a] for a in log.ev_act.tolist()))),
        time=dict(zip(log.events, log.ev_time.tolist())),
        omap={e: frozenset(related[ptr[i]:ptr[i + 1]]) for i, e in enumerate(log.events)},
        vmap=dict(zip(log.events, attribute_dicts(log, "ev"))),
    )


def object_graphs(log, o):
    """Directly-follows and eventually-follows graphs over the lifecycle of
    ``o``, as ``(dfg, efg)``: ``efg`` holds every ordered lifecycle pair
    (e1 before e2), ``dfg`` only consecutive lifecycle events."""
    lc = log.lifecycle(o)
    efg = frozenset((lc[i], lc[j]) for i in range(len(lc)) for j in range(i + 1, len(lc)))
    return frozenset(zip(lc, lc[1:])), efg


def column(F, name):
    """The values of the column of ``F`` whose header is ``name``."""
    return F.values[:, F.columns.index(name)]


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


def offset_last_stamp(data):
    """The document ``data`` with its last stamp, the last event's, written
    with a ``+00:00`` offset instead of ``Z``: not the form serialization
    writes, so the parse reads it on its own."""
    head, tail = data.rsplit(b'Z"', 1)
    return head + b'+00:00"' + tail


def non_ascii_object_id(data, letter="ö"):
    """The document ``data``, as serialization writes it, with its first
    object's id given the non-ASCII last letter ``letter`` wherever it is
    written."""
    oid = re.search(rb'"objects": \[\n    \{\n      "id": ("[^"]*)"', data).group(1)
    return data.replace(oid + b'"', oid + letter.encode() + b'"')


def cjk_object_id(data):
    """:func:`non_ascii_object_id` with a CJK letter: a ``str`` that holds
    it takes two bytes a character."""
    return non_ascii_object_id(data, "中")


def emoji_object_id(data):
    """:func:`non_ascii_object_id` with an emoji: a ``str`` that holds it
    takes four bytes a character."""
    return non_ascii_object_id(data, "😀")


def events_first(data):
    """The document ``data``, as serialization writes it, with its ``events``
    list written before its ``objects`` list."""
    head, objects = data.split(b',\n  "objects": ', 1)
    objects, events = objects.split(b',\n  "events": ', 1)
    return head + b',\n  "events": ' + events.removesuffix(b"\n}\n") + b',\n  "objects": ' + objects + b"\n}\n"


def objects_twice(data):
    """The document ``data``, as serialization writes it, with an empty
    ``objects`` list given before its own: the last list stands."""
    return data.replace(b'\n  "objects": [', b'\n  "objects": [],\n  "objects": [', 1)


def broken_first_key(data):
    """The document ``data``, as serialization writes it, with its first
    object's ``id`` key run into its value: a JSON fault in the first object."""
    return data.replace(b'"id": "', b'"id: "', 1)


def missing_last_comma(data):
    """The document ``data``, as serialization writes it, without the comma
    between its last two events: a JSON fault near its end."""
    head, tail = data.rsplit(b"    },\n    {\n", 1)
    return head + b"    }\n    {\n" + tail


def not_utf8_in_the_middle(data):
    """The document ``data`` with its middle byte replaced by one that UTF-8
    never uses."""
    return data[:len(data) // 2] + b"\xff" + data[len(data) // 2 + 1:]


def unknown_last_object(data):
    """The document ``data`` with the object of its last relationship renamed
    to an id that no object has: a fault that the parse holds back to the end."""
    head, tail = data.rsplit(b'"objectId": "', 1)
    return head + b'"objectId": "unknown-' + tail


def duplicate_object_id(data):
    """The document ``data``, as serialization writes it, with its second
    object given its first object's id: a fault that the parse holds back to
    the end."""
    first, second = re.findall(rb'\n    \{\n      "id": ("[^"]*")', data)[:2]
    return data.replace(b'"id": ' + second, b'"id": ' + first, 1)


def missing_first_type(data):
    """The document ``data``, as serialization writes it, with its first
    object's ``type`` left out: a fault of form, read early."""
    return re.sub(rb'("objects": \[\n    \{\n      "id": "[^"]*"),\n      "type": "[^"]*"', rb"\1", data, count=1)


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
