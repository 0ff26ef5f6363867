"""Object-centric event log model.

An event can relate to any number of objects of different types, so the log
keeps separate maps for activities, timestamps, event-to-object relations and
attribute values instead of a flat case table. Events are totally ordered by
(timestamp, event id); all per-object derivations (lifecycle, follows graphs,
interaction sets) are defined relative to that order.

Timestamps are real seconds since the Unix epoch. Serialization re-emits them
as ISO-8601 UTC with millisecond precision, so parse(serialize(log)) is the
identity for logs whose timestamps are millisecond-quantized.

The derivations read a :class:`LogIndex`, an integer view of the log built
once, on first use, by ``OcelLog.index``. Objects are coded by their position
in ``objects``, types and activities by their position in the sorted
``object_types`` and ``activities``, events by their position in the total
order. The index holds each object's type code, each event's time and
activity code, and the event-object relation twice as CSR (compressed sparse
row) arrays: each object's events (its lifecycle) and each event's objects.
Interaction partners are not stored; :meth:`LogIndex.related` gathers them
through both CSRs for the objects asked about, and :meth:`LogIndex.relation`
defines the interaction sets on them. Feature extraction and propagation
compute on these arrays for all objects of a type at once. The index is not
a field of the log, so equality, serialization and ``ocad generate`` never
build it.

Building a log, by :func:`parse_ocel_json` or the synthetic generators,
pauses the cyclic garbage collector: the records are about a million
containers at 8k orders that all stay alive and form no reference cycles, so
each automatic pass would rescan them and free nothing.
"""

from __future__ import annotations

import gc
import json
import json.encoder
import math
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import cached_property
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import DanglingReference, DuplicateId, MalformedDocument, UnknownObject

AttributeValue = Union[float, str]

_EPOCH_ISO = "1970-01-01T00:00:00.000Z"
# The instants that format_iso can write: years 0001 to 9999 in UTC.
T_MIN = datetime(1, 1, 1, tzinfo=timezone.utc).timestamp()
T_MAX = datetime(9999, 12, 31, 23, 59, 59, 999000, tzinfo=timezone.utc).timestamp()
_MS_MIN, _MS_MAX = round(T_MIN * 1000), round(T_MAX * 1000)


@dataclass(frozen=True)
class InteractionSets:
    """Objects of one target type related to a reference object.

    ``interact`` holds every object of the target type sharing at least one
    event with the reference object (the reference object itself never counts
    as its own interaction partner). The remaining sets refine ``interact``
    by comparing lifecycle boundary timestamps:

    * ``creation``: start strictly after the reference object's start
    * ``continuation``: start time equals the reference object's end time
    * ``cobirth``: equal start times
    * ``codeath``: equal end times

    Comparisons are exact equality on the stored float timestamps.
    """

    interact: frozenset[str]
    creation: frozenset[str]
    continuation: frozenset[str]
    cobirth: frozenset[str]
    codeath: frozenset[str]


@dataclass(frozen=True)
class LogIndex:
    """Integer arrays over one log; see the module docstring for the codes.

    ``lc_ev[lc_ptr[c]:lc_ptr[c + 1]]`` are the positions of object ``c``'s
    events in ascending (total) order, and ``ev_obj[ev_ptr[e]:ev_ptr[e + 1]]``
    are the codes of event ``e``'s objects. ``t_start``/``t_end`` are the
    times of each object's first and last event, 0.0 for an empty lifecycle.
    """

    obj_code: dict[str, int]
    type_code: dict[str, int]
    obj_type: np.ndarray
    ev_time: np.ndarray
    ev_act: np.ndarray
    ev_ptr: np.ndarray
    ev_obj: np.ndarray
    lc_ptr: np.ndarray
    lc_ev: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray

    @staticmethod
    def build(log: "OcelLog") -> "LogIndex":
        n = len(log.objects)
        obj_code = {o: i for i, o in enumerate(log.objects)}
        type_code = {t: i for i, t in enumerate(log.object_types)}
        act_code = {a: i for i, a in enumerate(log.activities)}
        obj_type = np.array([type_code[log.otyp[o]] for o in log.objects], dtype=np.int32)
        n_ev = len(log.events)
        ev_time = np.array([log.time[e] for e in log.events], dtype=np.float64)
        ev_act = np.array([act_code[log.act[e]] for e in log.events], dtype=np.int32)

        # The event->object CSR; the lifecycles are its transpose, stable in event order.
        omaps = [log.omap[e] for e in log.events]
        sizes = np.array([len(m) for m in omaps], dtype=np.int64)
        ev_ptr = np.zeros(n_ev + 1, dtype=np.int64)
        np.cumsum(sizes, out=ev_ptr[1:])
        ev_obj = np.array([obj_code[o] for m in omaps for o in m], dtype=np.int32)
        del omaps

        lc_ev = np.repeat(np.arange(n_ev, dtype=np.int32), sizes)[np.argsort(ev_obj, kind="stable")]
        lc_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ev_obj, minlength=n), out=lc_ptr[1:])
        has_events = lc_ptr[1:] > lc_ptr[:-1]
        t_start = np.zeros(n)
        t_end = np.zeros(n)
        t_start[has_events] = ev_time[lc_ev[lc_ptr[:-1][has_events]]]
        t_end[has_events] = ev_time[lc_ev[lc_ptr[1:][has_events] - 1]]
        return LogIndex(
            obj_code=obj_code,
            type_code=type_code,
            obj_type=obj_type,
            ev_time=ev_time,
            ev_act=ev_act,
            ev_ptr=ev_ptr,
            ev_obj=ev_obj,
            lc_ptr=lc_ptr,
            lc_ev=lc_ev,
            t_start=t_start,
            t_end=t_end,
        )

    def codes(self, objs: Iterable[str]) -> np.ndarray:
        """Object codes of ``objs``; raises :class:`UnknownObject` for an id
        that is not in the log."""
        try:
            return np.fromiter((self.obj_code[o] for o in objs), dtype=np.int64)
        except KeyError as exc:
            raise UnknownObject(f"unknown object id {exc.args[0]!r}") from None

    def lifecycles(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Event positions of the objects ``codes``, concatenated in the
        order given, and the index into ``codes`` of each one."""
        return _gather(self.lc_ev, self.lc_ptr[codes], self.lc_ptr[codes + 1])

    def related(self, codes: np.ndarray, ot: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Interaction partners of the objects ``codes``: every other object
        sharing at least one event with one, of type ``ot`` when given.
        Returns the partners concatenated in the order given with ascending
        codes per object, and the index into ``codes`` of each one."""
        events, row = self.lifecycles(codes)
        objs, k = _gather(self.ev_obj, self.ev_ptr[events], self.ev_ptr[events + 1])
        seg = row[k]
        del events, row, k
        keep = objs != codes[seg]
        if ot is not None:
            keep &= self.obj_type[objs] == self.type_code.get(ot, -1)
        n = len(self.obj_type)
        seg, partners = np.divmod(np.unique(seg[keep] * n + objs[keep]), n)
        return partners, seg

    def relation(self, name: str, codes: np.ndarray, partners: np.ndarray, seg: np.ndarray) -> np.ndarray:
        """Which pairs ``(codes[seg], partners)`` of :meth:`related` are in
        the relation ``name``, a field of :class:`InteractionSets`."""
        if name == "interact":
            return np.ones(len(partners), dtype=bool)
        if name == "creation":
            return self.t_start[codes][seg] < self.t_start[partners]
        if name == "continuation":
            return self.t_end[codes][seg] == self.t_start[partners]
        if name == "cobirth":
            return self.t_start[codes][seg] == self.t_start[partners]
        if name == "codeath":
            return self.t_end[codes][seg] == self.t_end[partners]
        raise ValueError(f"unknown relation {name!r}")


def _gather(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values[lo[i]:hi[i]]`` concatenated over ``i``, and the ``i`` of each
    entry."""
    lens = hi - lo
    seg = np.repeat(np.arange(len(lo)), lens)
    offsets = np.cumsum(lens) - lens
    return values[np.arange(int(lens.sum())) + np.repeat(lo - offsets, lens)], seg


@dataclass(frozen=True)
class OcelLog:
    """Immutable object-centric event log.

    ``events`` is the total order: sorted by (timestamp, lexicographic event
    id). All dict fields are keyed exactly by the event/object ids they
    describe. Instances must be built via :meth:`build` or
    :func:`parse_ocel_json`, which enforce the invariants; after construction
    the log is never mutated and all derivations are pure reads.
    """

    events: tuple[str, ...]
    objects: tuple[str, ...]
    otyp: dict[str, str]
    act: dict[str, str]
    time: dict[str, float]
    omap: dict[str, frozenset[str]]
    vmap: dict[str, dict[str, AttributeValue]]
    ovmap: dict[str, dict[str, AttributeValue]]

    @staticmethod
    def build(
        event_records: Iterable[tuple[str, str, float, Iterable[str], Mapping[str, AttributeValue]]],
        object_records: Iterable[tuple[str, str, Mapping[str, AttributeValue]]],
    ) -> "OcelLog":
        """Construct a log from (id, activity, time, object ids, attrs) event
        records and (id, type, attrs) object records, validating uniqueness,
        reference integrity and attribute values (:func:`_coerce_value`) and
        establishing the total event order."""
        otyp: dict[str, str] = {}
        ovmap: dict[str, dict[str, AttributeValue]] = {}
        for oid, ot, attrs in object_records:
            if oid in otyp:
                raise DuplicateId(f"duplicate object id {oid!r}")
            otyp[oid] = ot
            ovmap[oid] = {k: _coerce_value(v, "object", oid) for k, v in attrs.items()}

        act: dict[str, str] = {}
        time: dict[str, float] = {}
        omap: dict[str, frozenset[str]] = {}
        vmap: dict[str, dict[str, AttributeValue]] = {}
        for eid, activity, ts, oids, attrs in event_records:
            if eid in act:
                raise DuplicateId(f"duplicate event id {eid!r}")
            related = frozenset(oids)
            for oid in related:
                if oid not in otyp:
                    raise DanglingReference(f"event {eid!r} references unknown object {oid!r}")
            act[eid] = activity
            time[eid] = float(ts)
            omap[eid] = related
            vmap[eid] = {k: _coerce_value(v, "event", eid) for k, v in attrs.items()}

        ordered = tuple(sorted(act, key=lambda e: (time[e], e)))
        return OcelLog(
            events=ordered,
            objects=tuple(sorted(otyp)),
            otyp=otyp,
            act=act,
            time=time,
            omap=omap,
            vmap=vmap,
            ovmap=ovmap,
        )

    # ------------------------------------------------------------------ views

    @cached_property
    def object_types(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.otyp.values())))

    @cached_property
    def activities(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.act.values())))

    @cached_property
    def index(self) -> LogIndex:
        return LogIndex.build(self)

    def objects_of_type(self, ot: str) -> tuple[str, ...]:
        ix = self.index
        return tuple(self.objects[c] for c in np.flatnonzero(ix.obj_type == ix.type_code.get(ot, -1)).tolist())

    # ------------------------------------------------------------ derivations

    def lifecycle(self, o: str) -> tuple[str, ...]:
        """All events relating to ``o``, in total order. Empty when no event
        references the object."""
        ix = self.index
        pos, _ = ix.lifecycles(ix.codes([o]))
        return tuple(self.events[i] for i in pos.tolist())

    def object_graphs(self, o: str) -> tuple[frozenset[tuple[str, str]], frozenset[tuple[str, str]]]:
        """Directly-follows and eventually-follows graphs over the lifecycle.

        Returns ``(dfg, efg)``. ``efg`` contains every ordered lifecycle pair
        (e1 before e2); ``dfg`` keeps only pairs with no lifecycle event in
        between, i.e. consecutive lifecycle events.
        """
        lc = self.lifecycle(o)
        efg = frozenset((lc[i], lc[j]) for i in range(len(lc)) for j in range(i + 1, len(lc)))
        dfg = frozenset(zip(lc, lc[1:]))
        return dfg, efg

    def interaction_sets(self, o: str, ot: str) -> InteractionSets:
        """Interaction, creation, continuation, co-birth and co-death sets of
        ``o`` restricted to objects of type ``ot``."""
        ix = self.index
        codes = ix.codes([o])
        partners, seg = ix.related(codes, ot)
        return InteractionSets(**{
            f.name: frozenset(self.objects[p] for p in partners[ix.relation(f.name, codes, partners, seg)].tolist())
            for f in fields(InteractionSets)
        })

    def common_attributes(self, ot: str) -> frozenset[str]:
        """Attribute names present on every object of type ``ot``. Empty when
        the type has no objects (rather than "all names")."""
        objs = self.objects_of_type(ot)
        if not objs:
            return frozenset()
        names = set(self.ovmap[objs[0]])
        for o in objs[1:]:
            names &= set(self.ovmap[o])
        return frozenset(names)


# --------------------------------------------------------------------- JSON

def _parse_iso(ts: str) -> float:
    s = _string(ts, "timestamp").strip()
    if s.endswith("Z") or s.endswith("z"):
        s = s[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(s)
    except ValueError as exc:
        raise MalformedDocument(f"bad ISO-8601 timestamp {ts!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    t = dt.timestamp()
    if not T_MIN <= t <= T_MAX:
        raise MalformedDocument(f"timestamp {ts!r} is outside years 0001-9999 in UTC")
    return t


def _iso_stamps(ts: Iterable[float]) -> list[str]:
    """ISO-8601 UTC text of each time in ``ts`` to the millisecond, rounded
    half to even as ``round`` rounds. Raises ``ValueError`` for a time that
    is not finite or falls outside years 0001-9999."""
    ms = np.round(np.asarray(ts, dtype=np.float64) * 1000)
    if not np.all((ms >= _MS_MIN) & (ms <= _MS_MAX)):
        raise ValueError("timestamp is not finite or falls outside years 0001-9999 in UTC")
    return [s + "Z" for s in np.datetime_as_string(ms.astype("datetime64[ms]"), unit="ms").tolist()]


def format_iso(t: float) -> str:
    return _iso_stamps([t])[0]


def _string(v: object, what: str) -> str:
    # Ids, types and names are compared and sorted with each other. A lone
    # surrogate (a JSON "\ud800" escape) cannot be written back as UTF-8.
    if not isinstance(v, str):
        raise MalformedDocument(f"{what} must be a string, got {type(v).__name__}")
    if not v.isascii():
        try:
            v.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedDocument(f"{what} contains a lone surrogate: {v!r}") from exc
    return v


def _list(entry: dict, key: str) -> list:
    items = entry.get(key) or []
    if not isinstance(items, list):
        raise MalformedDocument(f"{key!r} of {entry['id']!r} must be a list, got {type(items).__name__}")
    return items


def _coerce_value(v: object, kind: str, ident: str) -> AttributeValue:
    # The one rule for attribute values, applied by OcelLog.build to the
    # attributes of the ``kind`` ("object" or "event") ``ident``: a finite
    # number, stored as float, or a string that UTF-8 can encode. Booleans
    # (JSON true/false) are neither. A finite float or an ASCII string
    # returns first.
    if type(v) is float and math.isfinite(v):
        return v
    if isinstance(v, str):
        return v if v.isascii() else _string(v, f"attribute value in {kind} {ident!r}")
    where = f"{kind} {ident!r}"
    if isinstance(v, bool):
        raise MalformedDocument(f"boolean attribute value in {where}")
    if isinstance(v, (int, float)):
        # json.loads reads NaN, Infinity and out-of-range literals such as
        # 1e999; none of them gives a meaningful feature.
        try:
            x = float(v)
        except OverflowError:
            x = math.inf
        if not math.isfinite(x):
            raise MalformedDocument(f"non-finite numeric attribute value in {where}")
        return x
    raise MalformedDocument(f"unsupported attribute value {v!r} in {where}")


class _collector_paused:
    """Pause the cyclic garbage collector for a ``with`` block (see the module
    docstring for why). On exit, also when the block raises, re-enable it only
    if it was enabled on entry, so nested use and callers that disabled it keep
    their state. ``__exit__`` allocates nothing after re-enabling, so the
    young-generation pass that the paused allocations owe runs at the caller's
    next allocation, not inside the function that holds the block."""

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc) -> None:
        if self.enabled:
            gc.enable()


def parse_ocel_json(data: bytes | str) -> OcelLog:
    """Parse an OCEL 2.0 JSON document.

    Expects top-level ``objects`` and ``events`` lists (``objectTypes`` and
    ``eventTypes`` declarations are accepted and ignored; types are derived
    from the instances). Object attributes may carry change timestamps; the
    latest value per attribute name is kept. Event relationship qualifiers
    are parsed and ignored.
    """
    with _collector_paused():
        try:
            doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise MalformedDocument(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise MalformedDocument("top level must be a JSON object")
        for key in ("objects", "events"):
            if key not in doc or not isinstance(doc[key], list):
                raise MalformedDocument(f"missing required top-level list {key!r}")

        object_records = []
        for entry in doc["objects"]:
            try:
                oid = _string(entry["id"], "object id")
                ot = _string(entry["type"], "object type")
            except (TypeError, KeyError) as exc:
                raise MalformedDocument(f"object entry missing id/type: {entry!r}") from exc
            latest: dict[str, tuple[float, int, AttributeValue]] = {}
            for seq, att in enumerate(_list(entry, "attributes")):
                try:
                    name = _string(att["name"], "attribute name")
                    value = att["value"]
                except (TypeError, KeyError) as exc:
                    raise MalformedDocument(f"bad attribute on object {oid!r}") from exc
                at = _parse_iso(att["time"]) if "time" in att else 0.0
                prev = latest.get(name)
                if prev is None or (at, seq) >= prev[:2]:
                    latest[name] = (at, seq, value)
            object_records.append((oid, ot, {k: v for k, (_, _, v) in latest.items()}))

        event_records = []
        for entry in doc["events"]:
            try:
                eid = _string(entry["id"], "event id")
                activity = _string(entry["type"], "event type")
                ts = _parse_iso(entry["time"])
            except (TypeError, KeyError) as exc:
                raise MalformedDocument(f"event entry missing id/type/time: {entry!r}") from exc
            attrs = {}
            for att in _list(entry, "attributes"):
                try:
                    attrs[_string(att["name"], "attribute name")] = att["value"]
                except (TypeError, KeyError) as exc:
                    raise MalformedDocument(f"bad attribute on event {eid!r}") from exc
            oids = []
            for rel in _list(entry, "relationships"):
                try:
                    oids.append(_string(rel["objectId"], "relationship objectId"))
                except (TypeError, KeyError) as exc:
                    raise MalformedDocument(f"bad relationship on event {eid!r}") from exc
            event_records.append((eid, activity, ts, oids, attrs))

        return OcelLog.build(event_records, object_records)


# The text of a JSON string, as json.dumps(ensure_ascii=False) writes it.
_str = json.encoder.encode_basestring


def _value(v: AttributeValue) -> tuple[str, str]:
    """JSON text and OCEL type name of an attribute value."""
    if isinstance(v, str):
        return _str(v), "string"
    return float.__repr__(v), "float"


def _array(items: list[str], indent: str) -> str:
    """JSON list of rendered ``items``, its closing bracket at ``indent``."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _type_decls(attrs_by_type: dict[str, dict[str, str]]) -> str:
    """``objectTypes`` or ``eventTypes``: types and attribute names sorted by name."""
    items = []
    for name, attrs in sorted(attrs_by_type.items()):
        rows = [f'        {{\n          "name": {_str(n)},\n          "type": "{t}"\n        }}'
                for n, t in sorted(attrs.items())]
        items.append(f'    {{\n      "name": {_str(name)},\n      "attributes": {_array(rows, "      ")}\n    }}')
    return _array(items, "  ")


def serialize_ocel_json(log: OcelLog) -> bytes:
    """Serialize back to OCEL 2.0 JSON (UTF-8, millisecond timestamps).

    The bytes are those of ``json.dumps(doc, indent=2, ensure_ascii=False)``
    on the document's dict tree, but written from fixed templates: with
    ``indent`` set, ``json`` runs its pure-Python encoder. Object attribute
    change times are not modeled, so object attributes are emitted with the
    epoch as their time.
    """
    otype_attrs: dict[str, dict[str, str]] = {ot: {} for ot in log.object_types}
    objects = []
    for o in log.objects:
        bucket, rows = otype_attrs[log.otyp[o]], []
        for n, v in sorted(log.ovmap[o].items()):
            text, kind = _value(v)
            bucket.setdefault(n, kind)
            rows.append(f'        {{\n          "name": {_str(n)},\n          "time": "{_EPOCH_ISO}",\n'
                        f'          "value": {text}\n        }}')
        objects.append(f'    {{\n      "id": {_str(o)},\n      "type": {_str(log.otyp[o])},\n'
                       f'      "attributes": {_array(rows, "      ")}\n    }}')
    etype_attrs: dict[str, dict[str, str]] = {a: {} for a in log.activities}
    events = []
    for e, stamp in zip(log.events, _iso_stamps([log.time[e] for e in log.events])):
        bucket, rows = etype_attrs[log.act[e]], []
        for n, v in sorted(log.vmap[e].items()):
            text, kind = _value(v)
            bucket.setdefault(n, kind)
            rows.append(f'        {{\n          "name": {_str(n)},\n          "value": {text}\n        }}')
        rels = [f'        {{\n          "objectId": {_str(o)},\n          "qualifier": ""\n        }}'
                for o in sorted(log.omap[e])]
        events.append(f'    {{\n      "id": {_str(e)},\n      "type": {_str(log.act[e])},\n      "time": "{stamp}",\n'
                      f'      "attributes": {_array(rows, "      ")},\n'
                      f'      "relationships": {_array(rels, "      ")}\n    }}')
    return (f'{{\n  "objectTypes": {_type_decls(otype_attrs)},\n  "eventTypes": {_type_decls(etype_attrs)},\n'
            f'  "objects": {_array(objects, "  ")},\n  "events": {_array(events, "  ")}\n}}\n').encode("utf-8")
