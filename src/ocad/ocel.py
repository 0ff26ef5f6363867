"""Object-centric event log model.

An event can relate to any number of objects of different types, so the log
keeps the event-to-object relation instead of a flat case table. Events are
totally ordered by (timestamp, event id); all per-object derivations
(lifecycle, interaction sets) are defined relative to that order. The
package's one (key, id) sort, :func:`_order`, and its one row-wise reduction
of equal-length segments, :func:`_segments_by_length`, are defined here.

Timestamps are real seconds since the Unix epoch. Serialization re-emits them
as ISO-8601 UTC with millisecond precision, so parse(serialize(log)) is the
identity for logs whose timestamps are millisecond-quantized.

The log is stored once, as arrays. Objects are coded by their position in the
sorted ``objects``, types and activities by their position in the sorted
``object_types`` and ``activities``, events by their position in the total
order. The log holds each object's type code, each event's time and activity
code, and each event's objects, ascending, as CSR (compressed sparse row)
arrays. Attributes are columns too: each object's and each event's attribute
slots, ascending by name, as CSR arrays of a name code into the sorted
``att_names`` and a float value or a code into the sorted distinct string
values ``att_strings``. Each object's events (its lifecycle, the transposed
CSR) and its first and last times are built on first use and are not
compared by equality, so serialization and ``ocad generate`` never build
them. Interaction partners are not stored: :meth:`OcelLog.related` gathers
them through both CSRs for the objects asked about, and
:meth:`OcelLog.relation` defines the interaction sets on them. An event's
objects and an object's partners are both deduplicated by :func:`_distinct`
over (row, code) keys. The log holds no dict and no container per entry: a
reader indexes the arrays, and finds an object id or a type by bisection in
the sorted tuple that holds it (:func:`_position`). :func:`_assemble` lays the
columns out, for :meth:`OcelLog.build` and the parse alike: it sorts the codes,
orders the events, builds the CSR and sorts each entry's attribute slots.

Building a log, by :func:`parse_ocel_json` or the synthetic generators,
pauses the cyclic garbage collector: the records are about a million
containers at 8k orders that all stay alive and form no reference cycles, so
each automatic pass would rescan them and free nothing.

:func:`parse_ocel_json` reads the ``objects`` and then the ``events`` list
from the text one entry at a time, with ``json``'s C scanner, and reads each
entry straight into the columns, with inline checks such as ``type(v) is str
and v.isascii()``, codes assigned as it reads and event stamps checked in
bulk. A value that fails an inline check goes to the checker that names its
fault. The bytes may come in chunks, which the stream decodes as UTF-8 and
reads through a window of a chunk or two (:class:`_Window`), and an entry is
freed once it has been read, so a document with ``objects`` before
``events`` is never whole, as bytes, as text or as a JSON tree, and a fault
of the log stands once the rest of the text has been read. A document of
another shape, or one with a JSON or UTF-8 fault, is decoded again whole
and read from the tree of ``json.loads``, whose log or error stands.
"""

from __future__ import annotations

import codecs
import gc
import json
import json.encoder
import json.scanner
import math
import re
import traceback
from array import array
from bisect import bisect_left
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

from .errors import DanglingReference, DuplicateId, InvalidConfig, MalformedDocument, UnknownObject

AttributeValue = Union[float, str]

_EPOCH_ISO = "1970-01-01T00:00:00.000Z"
# The instants that format_iso can write: years 0001 to 9999 in UTC.
T_MIN = datetime(1, 1, 1, tzinfo=timezone.utc).timestamp()
T_MAX = datetime(9999, 12, 31, 23, 59, 59, 999000, tzinfo=timezone.utc).timestamp()
_MS_MIN, _MS_MAX = round(T_MIN * 1000), round(T_MAX * 1000)
# The most entries OcelLog.related gathers in one call, one per object of each
# event of each object asked about. Its tracemalloc peak, and its peak RSS rise,
# is 37 bytes an entry (one event over 1k-2k objects), about 600 MB here, what
# features.MAX_COUNT_CELLS allows extraction; one event over 4,000 objects of the
# type asked about reaches it.
MAX_PARTNER_ENTRIES = 16_000_000
# _segments_by_length yields this many entries at a time, so that a gather
# over them stays small beside the entries (LOF keeps 16 bytes an entry).
_SEGMENT_ENTRIES = 1 << 16


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


def _gather(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values[lo[i]:hi[i]]`` concatenated over ``i``, and the ``i`` of each
    entry."""
    lens = hi - lo
    seg = np.repeat(np.arange(len(lo)), lens)
    offsets = np.cumsum(lens) - lens
    return values[np.arange(int(lens.sum())) + np.repeat(lo - offsets, lens)], seg


def _order(ids, keys) -> np.ndarray:
    """Positions ascending by (key, id), -0.0 tying 0.0. The ids are compared as
    Python strings: a numpy string array would drop trailing NULs."""
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    return by_id[np.argsort(np.asarray(keys)[by_id], kind="stable")]


def _segments_by_length(lengths: np.ndarray):
    """For segments of ``lengths`` entries stored back to back, yield
    segments of one nonzero length and their entry positions, one row per
    segment, about ``_SEGMENT_ENTRIES`` entries at a time: reduced along axis
    1, each row gives the floats of a call on it alone."""
    start = np.cumsum(lengths) - lengths
    for m in np.unique(lengths[lengths > 0]).tolist():
        sel = np.flatnonzero(lengths == m)
        step = max(1, _SEGMENT_ENTRIES // m)
        for part in (sel[i:i + step] for i in range(0, len(sel), step)):
            yield part, start[part, None] + np.arange(m)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending, sorting ``keys`` in place.
    ``np.unique`` hashes integers: 80 times as slow on 2M distinct int64."""
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _position(names: tuple[str, ...], name: str) -> int:
    """Position of ``name`` in the sorted ``names``, or -1; bisects Python strings, which keep NULs."""
    i = bisect_left(names, name)
    return i if i < len(names) and names[i] == name else -1


def _sorted_codes(first_seen: dict[str, int]) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted names of ``first_seen``, and each name's sorted position at its value."""
    names = tuple(sorted(first_seen))
    code = np.empty(len(names), dtype=np.int32)
    code[[first_seen[n] for n in names]] = np.arange(len(names), dtype=np.int32)
    return names, code


@dataclass(frozen=True, eq=False)
class OcelLog:
    """Immutable object-centric event log; see the module docstring for the
    codes. ``events`` is the total order: sorted by (timestamp, lexicographic
    event id). ``ev_obj[ev_ptr[e]:ev_ptr[e + 1]]`` are the codes of event
    ``e``'s objects, ascending.

    Attributes are stored as slots, one per (entry, name), in the same CSR
    form for objects (``obj_att_*``, in code order) and events (``ev_att_*``,
    in total order): ``obj_att_ptr[c]:obj_att_ptr[c + 1]`` are object ``c``'s
    slots, ascending by name. A slot's ``name`` is a code into the sorted
    ``att_names``; its ``str`` is a code into the sorted distinct string
    values ``att_strings``, or -1 for a number, whose float is its ``num``
    (0.0 for a string). Instances must be built via :meth:`build` or
    :func:`parse_ocel_json`, which enforce the invariants; after construction
    the log is never mutated and all derivations are pure reads. Two logs are
    equal when their fields are; the cached properties are not compared.
    """

    events: tuple[str, ...]
    objects: tuple[str, ...]
    object_types: tuple[str, ...]
    activities: tuple[str, ...]
    obj_type: np.ndarray
    ev_time: np.ndarray
    ev_act: np.ndarray
    ev_ptr: np.ndarray
    ev_obj: np.ndarray
    att_names: tuple[str, ...]
    att_strings: tuple[str, ...]
    obj_att_ptr: np.ndarray
    obj_att_name: np.ndarray
    obj_att_num: np.ndarray
    obj_att_str: np.ndarray
    ev_att_ptr: np.ndarray
    ev_att_name: np.ndarray
    ev_att_num: np.ndarray
    ev_att_str: np.ndarray

    @staticmethod
    def build(
        event_records: Iterable[tuple[str, str, float, Iterable[str], Mapping[str, AttributeValue]]],
        object_records: Iterable[tuple[str, str, Mapping[str, AttributeValue]]],
    ) -> "OcelLog":
        """Construct a log from (id, activity, time, object ids, attrs) event
        records and (id, type, attrs) object records, validating uniqueness,
        reference integrity and attribute values (:func:`_coerce_value`) and
        establishing the total event order."""
        types: dict[str, int] = {}
        obj_code: dict[str, int] = {}
        obj_type, obj_slots = [], _Slots({}, {})
        for oid, ot, attrs in object_records:
            if obj_code.setdefault(oid, len(obj_type)) != len(obj_type):
                raise DuplicateId(f"duplicate object id {oid!r}")
            obj_type.append(types.setdefault(ot, len(types)))
            obj_slots.add(attrs, "object", oid)

        acts: dict[str, int] = {}
        seen: set[str] = set()
        ev_slots = _Slots(obj_slots.names, obj_slots.strings)
        eids, times, ev_act, sizes, codes = [], [], [], [], []
        for eid, activity, ts, oids, attrs in event_records:
            if eid in seen:
                raise DuplicateId(f"duplicate event id {eid!r}")
            seen.add(eid)
            try:
                related = [obj_code[o] for o in oids]
            except KeyError as exc:
                raise DanglingReference(f"event {eid!r} references unknown object {exc.args[0]!r}") from None
            eids.append(eid)
            times.append(float(ts))
            ev_act.append(acts.setdefault(activity, len(acts)))
            if attrs:
                ev_slots.add(attrs, "event", eid)
            else:  # most events have no attributes
                ev_slots.sizes.append(0)
            sizes.append(len(related))
            codes += related
        del seen
        return _assemble(obj_code, types, obj_type, obj_slots, eids, acts, ev_act, times, ev_slots, sizes, codes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OcelLog):
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self)))

    # ------------------------------------------------------------------ views

    @cached_property
    def lc_ev(self) -> np.ndarray:
        """Each object's event positions, ascending, object after object."""
        sizes = np.diff(self.ev_ptr)
        return np.repeat(np.arange(len(self.events), dtype=np.int32), sizes)[np.argsort(self.ev_obj, kind="stable")]

    @cached_property
    def lc_ptr(self) -> np.ndarray:
        """``lc_ev[lc_ptr[c]:lc_ptr[c + 1]]`` is object ``c``'s lifecycle."""
        return np.concatenate(([0], np.cumsum(np.bincount(self.ev_obj, minlength=len(self.objects)))))

    @cached_property
    def t_start(self) -> np.ndarray:
        """Time of each object's first event, 0.0 for an empty lifecycle."""
        return self._lifecycle_times(self.lc_ptr[:-1])

    @cached_property
    def t_end(self) -> np.ndarray:
        """Time of each object's last event, 0.0 for an empty lifecycle."""
        return self._lifecycle_times(self.lc_ptr[1:] - 1)

    def _lifecycle_times(self, pos: np.ndarray) -> np.ndarray:
        has_events = self.lc_ptr[1:] > self.lc_ptr[:-1]
        t = np.zeros(len(self.objects))
        t[has_events] = self.ev_time[self.lc_ev[pos[has_events]]]
        return t

    # ------------------------------------------------------------ derivations

    def codes(self, objs: Iterable[str]) -> np.ndarray:
        """Object codes of ``objs``; raises :class:`UnknownObject` for an id
        that is not in the log."""
        codes = []
        for o in objs:
            codes.append(_position(self.objects, o))
            if codes[-1] < 0:
                raise UnknownObject(f"unknown object id {o!r}")
        return np.array(codes, dtype=np.int64)

    def objects_of_type(self, ot: str) -> tuple[str, ...]:
        return tuple(self.objects[c] for c in np.flatnonzero(self.obj_type == _position(self.object_types, ot)).tolist())

    def lifecycles(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Event positions of the objects ``codes``, concatenated in the
        order given, and the index into ``codes`` of each one."""
        return _gather(self.lc_ev, self.lc_ptr[codes], self.lc_ptr[codes + 1])

    def lifecycle(self, o: str) -> tuple[str, ...]:
        """All events relating to ``o``, in total order. Empty when no event
        references the object."""
        pos, _ = self.lifecycles(self.codes([o]))
        return tuple(self.events[i] for i in pos.tolist())

    def related(self, codes: np.ndarray, ot: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Interaction partners of the objects ``codes``: every other object
        sharing at least one event with one, of type ``ot`` when given.
        Returns the partners concatenated in the order given with ascending
        codes per object, and the index into ``codes`` of each one. Raises
        :class:`InvalidConfig` before the gather when the objects' events
        hold more than :data:`MAX_PARTNER_ENTRIES` entries in all."""
        events, row = self.lifecycles(codes)
        lo, hi = self.ev_ptr[events], self.ev_ptr[events + 1]
        entries = int((hi - lo).sum())
        if entries > MAX_PARTNER_ENTRIES:
            raise InvalidConfig(f"gathering the partners of {len(codes)} objects would take {entries} entries, "
                                f"over the bound of {MAX_PARTNER_ENTRIES}")
        objs, k = _gather(self.ev_obj, lo, hi)
        seg = row[k]
        del events, row, k, lo, hi
        keep = objs != codes[seg]
        if ot is not None:
            keep &= self.obj_type[objs] == _position(self.object_types, ot)
        n = len(self.objects)
        seg, partners = np.divmod(_distinct(seg[keep] * n + objs[keep]), n)
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

    def interaction_sets(self, o: str, ot: str) -> InteractionSets:
        """Interaction, creation, continuation, co-birth and co-death sets of
        ``o`` restricted to objects of type ``ot``."""
        codes = self.codes([o])
        partners, seg = self.related(codes, ot)
        return InteractionSets(**{
            f.name: frozenset(self.objects[p] for p in partners[self.relation(f.name, codes, partners, seg)].tolist())
            for f in fields(InteractionSets)
        })


class _Slots:
    """One entry kind's attribute slots as they are read, in first-seen
    codes: each entry's number of slots in ``sizes``, and per slot its name's
    code in ``names`` and its value, a float in ``num`` or its code in
    ``strings`` in ``text`` (-1 for a float). The two kinds of a log share
    ``names`` and ``strings``."""

    __slots__ = ("names", "strings", "sizes", "name", "num", "text")

    def __init__(self, names: dict[str, int], strings: dict[str, int]) -> None:
        self.names, self.strings = names, strings
        self.sizes, self.name, self.num, self.text = array("i"), array("i"), array("d"), array("i")

    def add(self, attrs: Mapping[str, object], kind: str, ident: str) -> None:
        """Append the attributes of the ``kind`` ("object" or "event")
        ``ident``, each value checked by :func:`_coerce_value`. A fault leaves
        the entry's slots in part, so the log is then not built."""
        names, strings = self.names, self.strings
        self.sizes.append(len(attrs))
        for k, v in attrs.items():
            self.name.append(names.setdefault(k, len(names)))
            if not (type(v) is float and v - v == 0.0 or type(v) is str and v.isascii()):
                v = _coerce_value(v, kind, ident)  # not a finite float or an ASCII string, which it returns as is
            if type(v) is str:
                self.text.append(strings.setdefault(v, len(strings)))
                self.num.append(0.0)
            else:
                self.text.append(-1)
                self.num.append(v)

    def columns(self, kind: str, rank: np.ndarray, name_rank: np.ndarray, text_rank: np.ndarray) -> dict:
        """The ``kind`` ("obj" or "ev") attribute columns of :class:`OcelLog`
        for entries at positions ``rank`` and names and strings at
        ``name_rank`` and ``text_rank``: each entry's slots ascending by name,
        whose codes are unique within it."""
        sizes = np.asarray(self.sizes, dtype=np.int64)
        name = name_rank[np.asarray(self.name, dtype=np.intp)]
        key = np.repeat(rank.astype(np.int64), sizes)  # an (entry position, name code) key per slot
        key *= len(name_rank)
        key += name
        slot = np.argsort(key)
        del key
        lengths = np.empty(len(sizes), dtype=np.int64)
        lengths[rank] = sizes
        text = np.append(text_rank, np.int32(-1))[np.asarray(self.text, dtype=np.intp)[slot]]  # -1 stays -1
        return {f"{kind}_att_ptr": np.concatenate(([0], np.cumsum(lengths))), f"{kind}_att_name": name[slot],
                f"{kind}_att_num": np.asarray(self.num, dtype=np.float64)[slot], f"{kind}_att_str": text}


def _assemble(obj_code: dict[str, int], types: dict[str, int], obj_type, obj_slots: _Slots,
              eids: list[str], acts: dict[str, int], ev_act, times, ev_slots: _Slots, sizes, codes) -> OcelLog:
    """The log of checked columns, in first-seen codes: each object's code in
    ``obj_code`` (its position in ``obj_type`` and ``obj_slots``), its type
    code in ``types``; each event's id, activity code in ``acts``, time and
    attribute slots, and its number of objects in ``sizes``; the events'
    object codes back to back in ``codes``. Sorts the objects, types,
    activities, attribute names and string values, orders the events by
    :func:`_order` and builds the event-to-object CSR."""
    objects, obj_rank = _sorted_codes(obj_code)
    object_types, type_code = _sorted_codes(types)
    activities, act_code = _sorted_codes(acts)
    att_names, name_rank = _sorted_codes(obj_slots.names)
    att_strings, text_rank = _sorted_codes(obj_slots.strings)
    n, by_code, order = len(objects), np.argsort(obj_rank), _order(eids, times)
    ev_rank = np.argsort(order)
    obj_att = obj_slots.columns("obj", obj_rank, name_rank, text_rank)
    ev_att = ev_slots.columns("ev", ev_rank, name_rank, text_rank)
    key = ev_rank  # a (position, code) key per relationship, built in place
    key *= n
    key = np.repeat(key, sizes)
    key += obj_rank[np.asarray(codes, dtype=np.intp)]
    key = _distinct(key)
    return OcelLog(
        events=tuple(map(eids.__getitem__, order.tolist())),
        objects=objects,
        object_types=object_types,
        activities=activities,
        obj_type=type_code[np.asarray(obj_type, dtype=np.intp)][by_code],
        ev_time=np.asarray(times, dtype=np.float64)[order],
        ev_act=act_code[np.asarray(ev_act, dtype=np.intp)][order],
        ev_ptr=np.searchsorted(key, np.arange(len(order) + 1) * n),
        ev_obj=(key % n).astype(np.int32),
        att_names=att_names,
        att_strings=att_strings,
        **obj_att,
        **ev_att,
    )


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
    items = entry.get(key)
    if not isinstance(items, list) and items is not None:  # missing or null reads as []
        raise MalformedDocument(f"{key!r} of {entry['id']!r} must be a list, got {type(items).__name__}")
    return items or []


def _coerce_value(v: object, kind: str, ident: str) -> AttributeValue:
    # The one rule for the attribute values of the ``kind`` ("object" or
    # "event") ``ident``, applied by _Slots.add for OcelLog.build and the
    # parse alike, which checks inline first: a finite number, stored as
    # float, or a string that UTF-8 can encode. Booleans (JSON true/false) are
    # neither. A finite float or an ASCII string returns first.
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


def parse_ocel_json(data: bytes | Iterable[bytes]) -> OcelLog:
    """Parse an OCEL 2.0 JSON document.

    Expects top-level ``objects`` and ``events`` lists (``objectTypes`` and
    ``eventTypes`` declarations are accepted and ignored; types are derived
    from the instances). Object attributes may carry change timestamps; the
    latest value per attribute name is kept. Event relationship qualifiers
    are parsed and ignored.

    ``data`` is the document's UTF-8 bytes, or its bytes in chunks: an
    iterable that gives the same chunks each time it is iterated, which the
    stream decodes as it reads them through a window (:class:`_Window`) and
    the tree joins and decodes again whole. An iterator, such as a generator
    or an open file, cannot be read again and raises ``TypeError``. One pass
    (:func:`_parse`) reads the entries that :func:`_entries` reads from the
    text, straight into the log's columns. ``json.loads`` reports a JSON
    fault before any fault of the log, so a fault of the log stands once the
    stream has read the rest of the text cleanly; a JSON fault, a fault of
    the UTF-8, or a document that the stream does not read, is read again by
    :func:`_document`, and that pass's log or error stands: a fault of the
    UTF-8 is named at its offset in the whole document.
    """
    with _collector_paused():
        chunks = [data] if isinstance(data, bytes) else data
        if iter(chunks) is chunks:
            raise TypeError("parse_ocel_json reads the chunks of a document twice; an iterator can be read once")
        try:
            return _streamed(_entries(codecs.iterdecode(chunks, "utf-8")))
        except (_Unstreamable, UnicodeDecodeError) as exc:
            # The exception and the frames of the failed pass refer to each
            # other, so the paused collector would keep that pass's columns,
            # and the stream's window, alive through the second pass.
            traceback.clear_frames(exc.__traceback__)
        try:  # the joined bytes are freed once decoded, before json.loads
            return _parse(*_document(b"".join(chunks).decode("utf-8")))
        except UnicodeDecodeError as exc:  # raised by the decode alone
            raise MalformedDocument(f"invalid JSON: {exc}") from exc


def _streamed(entries: Iterator) -> OcelLog:
    """The log of the entries of :func:`_entries`, or the first fault of the
    log once the rest of the text has been read, each entry dropped as it is
    read; a later JSON fault or an unstreamable shape raises
    :class:`_Unstreamable` instead."""
    try:
        return _parse(iter(entries.__next__, _END), entries)
    except MalformedDocument as exc:
        traceback.clear_frames(exc.__traceback__)  # frees the columns before the rest is read
        for _ in entries:
            pass
        raise


def _document(text: str) -> tuple[Iterator, Iterator]:
    """The entries of the ``objects`` and ``events`` lists of the JSON
    document ``text``, each list's slot cleared as its entry is handed out;
    the rest of the document is dropped."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("top level must be a JSON object")
    for key in ("objects", "events"):
        if key not in doc or not isinstance(doc[key], list):
            raise MalformedDocument(f"missing required top-level list {key!r}")
    return _emptied(doc["objects"]), _emptied(doc["events"])


def _emptied(items: list) -> Iterator:
    """The entries of ``items``, each slot cleared as its entry is handed out."""
    for i, item in enumerate(items):
        items[i] = None
        yield item


_scan_once = json.scanner.make_scanner(json.JSONDecoder())  # the scanner of json.loads
# With the whitespace around it: a separator or a closing bracket, or none.
_SEP = re.compile(r"[ \t\n\r]*([,:\]}]?)[ \t\n\r]*").match
# With the whitespace around it: an opening bracket, or none.
_OPEN = re.compile(r"[ \t\n\r]*([{[]?)[ \t\n\r]*").match
_END = object()  # the end of the objects, between the two lists' entries
# The farthest before the window's end that a scan of a value cut by it fails:
# "-Infinit" of -Infinity fails where it starts. An unterminated string fails
# where it starts, however far that is.
_CUT_REACH = len("-Infinit")


class _Unstreamable(Exception):
    """A text that :func:`_entries` does not read: not one JSON object with
    an ``objects`` list before an ``events`` list and no key twice, or one
    with a JSON fault."""


class _Window:
    """The part of a text, read chunk by chunk from ``chunks``, that the
    stream is reading: ``text`` holds its characters from some point on, and
    through the text's end once ``done``.

    A match or a scanned value is taken only when it ends inside the window,
    or the window has reached the end of the text. A value must also have its
    separator matched after it: a value cut by the window's end, such as
    ``12`` of ``1234``, ``1.5`` of ``1.5e10`` or ``tr`` of ``true``, either
    fails to scan or ends where the window ends, and whitespace to the
    window's end may run on. Otherwise the window drops what was read before
    the value, grows by at least as much as it keeps, and reads it again, so
    a value of m characters is read again in O(m) in all. A scan that fails
    more than :data:`_CUT_REACH` characters before the window's end, not in
    an unterminated string, fails in the whole text too, and is decided at
    once."""

    __slots__ = ("chunks", "text", "done")

    def __init__(self, chunks: Iterator[str]) -> None:
        self.chunks, self.text, self.done = chunks, "", False

    def grow(self, pos: int) -> int:
        """Drop the characters before ``pos`` and read at least as many more
        as are kept, and at least one; return ``pos``'s new place, 0."""
        kept = self.text[pos:]
        parts, need = [kept] if kept else [], max(len(kept), 1)  # one chunk alone is not copied
        for chunk in self.chunks:
            parts.append(chunk)
            need -= len(chunk)
            if need <= 0:
                break
        else:
            self.done = True
        self.text = "".join(parts)
        return 0

    def match(self, pattern, pos: int) -> re.Match:
        """The match of ``pattern``, which matches at any place, at ``pos``."""
        while (m := pattern(self.text, pos)).end() == len(self.text) and not self.done:
            pos = self.grow(pos)
        return m

    def value(self, pos: int) -> tuple[object, re.Match]:
        """The JSON value at ``pos`` and the match of :data:`_SEP` after it.
        Raises :class:`_Unstreamable` where there is no value, or one with a
        JSON fault, in the whole text."""
        while True:
            try:
                value, end = _scan_once(self.text, pos)
                m = _SEP(self.text, end)
                if m[1] and m.end() < len(self.text) or self.done:
                    return value, m
            except (StopIteration, ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
                if self.done or _cut_cannot_explain(exc, len(self.text)):
                    raise _Unstreamable from None
            pos = self.grow(pos)


def _cut_cannot_explain(exc: Exception, end: int) -> bool:
    """Whether the failed scan ``exc`` of a window ending at ``end`` fails
    too far before it to come from a value that the end cuts. ``StopIteration``
    holds where no value starts, also one nested in the scanned value."""
    if isinstance(exc, StopIteration):
        pos = exc.value
    elif isinstance(exc, json.JSONDecodeError) and not exc.msg.startswith("Unterminated string"):
        pos = exc.pos
    else:
        return False
    return pos + _CUT_REACH < end


def _entries(chunks: Iterator[str]) -> Iterator:
    """The entries of the top-level ``objects`` list of the text in
    ``chunks``, then :data:`_END`, then those of its ``events`` list, each
    read by ``scan_once`` from a :class:`_Window` on the text. Reads any
    other member's value as it meets it, and after the last entry, the text
    to its end. Raises :class:`_Unstreamable` where the text leaves the shape
    that the stream reads, or has a JSON fault."""
    w = _Window(chunks)
    m = w.match(_OPEN, 0)
    if m[1] != "{":  # also a BOM
        raise _Unstreamable
    keys = set()
    while True:
        if not w.text.startswith('"', m.end()):
            raise _Unstreamable
        key, m = w.value(m.end())
        if m[1] != ":" or key in keys or key == "events" and "objects" not in keys:
            raise _Unstreamable
        keys.add(key)
        if key not in ("objects", "events"):
            _, m = w.value(m.end())
        else:
            m = w.match(_OPEN, m.end())
            if m[1] != "[":
                raise _Unstreamable
            if w.text.startswith("]", m.end()):
                m = w.match(_SEP, m.end() + 1)
            else:
                while True:
                    entry, m = w.value(m.end())
                    yield entry
                    if m[1] != ",":
                        break
                if m[1] != "]":
                    raise _Unstreamable
                m = w.match(_SEP, m.end())
            if key == "objects":
                yield _END
        if m[1] != ",":
            break
    if m[1] != "}" or "events" not in keys or m.end() != len(w.text):
        raise _Unstreamable


# The event stamp form read in bulk, the one serialization writes; a 0 stands
# for any ASCII digit. A stamp of this form is valid for _parse_iso exactly
# when numpy reads it as a datetime64[ms] of year 0001 or later, and then
# ms / 1000 is the float that _parse_iso gives. numpy also reads some other
# strings of this length, such as "+2024-01-01T00:00:00.00".
_STAMP = b"0000-00-00T00:00:00.000Z"
_NO_ITEMS: list = []  # a missing list; never written


def _parse(objects: Iterable, events: Iterable) -> OcelLog:
    """The log of the entries of the document's ``objects`` and ``events``
    lists, read in one pass straight into the columns of :func:`_assemble`,
    or the :class:`MalformedDocument` that names the first fault. A fault of
    form is raised where it is read, after any invalid event stamp read
    before it (those of 24 characters ending in ``Z`` are checked in bulk).
    The faults that :meth:`OcelLog.build` finds, a duplicate id, an unknown
    object or an attribute value, are held back: the first in build's order
    is raised once the whole document has been read. Nothing here holds an
    entry after it has been read."""
    obj_code: dict[str, int] = {}
    types: dict[str, int] = {}
    obj_type, obj_slots, att_times = array("i"), _Slots({}, {}), {_EPOCH_ISO: 0.0}
    acts: dict[str, int] = {}
    ev_slots = _Slots(obj_slots.names, obj_slots.strings)
    eids, stamps, ev_act, sizes, codes = [], bytearray(), array("i"), array("i"), array("i")
    other_times = []  # (event position, time) of each event stamp not checked in bulk
    held = []  # (event position, fault) of build's faults in document order, -1 for an object's
    try:
        for entry in objects:
            try:  # an id that is not a string is reported before a missing type
                oid = entry["id"]
                if not (type(oid) is str and oid.isascii()):
                    oid = _string(oid, "object id")
                ot = entry["type"]
                if not (type(ot) is str and ot.isascii()):
                    ot = _string(ot, "object type")
            except (KeyError, TypeError) as exc:
                raise MalformedDocument(f"object entry missing id/type: {entry!r}") from exc
            atts = entry.get("attributes", _NO_ITEMS)
            if type(atts) is not list:
                atts = _list(entry, "attributes")
            latest: dict[str, object] = {}  # the value of each name, set at its time in changed
            changed: dict[str, float] = {}
            for att in atts:
                try:  # a name that is not a string is reported before a missing value
                    name = att["name"]
                    if not (type(name) is str and name.isascii()):
                        name = _string(name, "attribute name")
                    value = att["value"]
                except (KeyError, TypeError) as exc:
                    raise MalformedDocument(f"bad attribute on object {oid!r}") from exc
                t = att.get("time", _EPOCH_ISO)
                at = att_times.get(t) if type(t) is str else None
                if at is None:
                    at = att_times[t] = _parse_iso(t)
                if name not in changed or at >= changed[name]:  # the later entry wins a tie
                    latest[name], changed[name] = value, at
            if obj_code.setdefault(oid, len(obj_type)) != len(obj_type):
                held.append((-1, DuplicateId(f"duplicate object id {oid!r}")))
            try:
                obj_slots.add(latest, "object", oid)
            except MalformedDocument as exc:
                held.append((-1, exc))
            obj_type.append(types.setdefault(ot, len(types)))
        entry = None

        for entry in events:
            try:
                eid = entry["id"]
                if not (type(eid) is str and eid.isascii()):
                    eid = _string(eid, "event id")
                act = entry["type"]
                if not (type(act) is str and act.isascii()):
                    act = _string(act, "event type")
                t = entry["time"]
            except (KeyError, TypeError) as exc:
                raise MalformedDocument(f"event entry missing id/type/time: {entry!r}") from exc
            if type(t) is str and len(t) == 24 and t[23] == "Z" and t.isascii():
                stamps += t.encode()
            else:
                other_times.append((len(eids), _parse_iso(t)))
                stamps += _EPOCH_ISO.encode()  # a valid stamp in its place
            atts = entry.get("attributes", _NO_ITEMS)
            if type(atts) is not list:
                atts = _list(entry, "attributes")
            attrs = {} if atts else None  # most events have no attributes
            for att in atts:
                try:  # a missing value is reported before a name that is not a string
                    value, name = att["value"], att["name"]
                except (KeyError, TypeError) as exc:
                    raise MalformedDocument(f"bad attribute on event {eid!r}") from exc
                if not (type(name) is str and name.isascii()):
                    name = _string(name, "attribute name")
                attrs[name] = value
            rels = entry.get("relationships", _NO_ITEMS)
            if type(rels) is not list:
                rels = _list(entry, "relationships")
            try:
                codes.extend([obj_code[rel["objectId"]] for rel in rels])
            except (KeyError, TypeError):
                for rel in rels:
                    try:
                        oid = _string(rel["objectId"], "relationship objectId")
                    except (KeyError, TypeError) as exc:
                        raise MalformedDocument(f"bad relationship on event {eid!r}") from exc
                    if oid not in obj_code:  # the log is not built, so the codes can be left out
                        held.append((len(eids), DanglingReference(f"event {eid!r} references unknown object {oid!r}")))
            if attrs is None:
                ev_slots.sizes.append(0)
            else:
                try:
                    ev_slots.add(attrs, "event", eid)
                except MalformedDocument as exc:
                    held.append((len(eids), exc))
            eids.append(eid)
            ev_act.append(acts.setdefault(act, len(acts)))
            sizes.append(len(rels))
        entry = None
    except MalformedDocument:
        _stamp_times(stamps)  # raises the fault of an invalid stamp read before this fault
        raise
    duplicated = len(set(eids)) != len(eids)
    times = _stamp_times(stamps)
    del stamps  # before _assemble allocates: the log's arrays take its place
    for e, t in other_times:
        times[e] = t
    if duplicated:  # build checks an event's id before its objects and values
        seen: set[str] = set()
        e = next(e for e, eid in enumerate(eids) if eid in seen or seen.add(eid))
        held.insert(0, (e, DuplicateId(f"duplicate event id {eids[e]!r}")))
    if held:
        raise min(held, key=lambda h: h[0])[1]
    return _assemble(obj_code, types, obj_type, obj_slots, eids, acts, ev_act, times, ev_slots, sizes, codes)


def _stamp_times(stamps: bytearray) -> np.ndarray:
    """Seconds since the epoch of the 24-character ASCII stamps written back
    to back in ``stamps``: in bulk when each has the form :data:`_STAMP` and
    is a valid instant, else by :func:`_parse_iso` one at a time, which
    raises the fault of the first invalid stamp."""
    rows = np.frombuffer(stamps, dtype=np.uint8).reshape(-1, len(_STAMP))
    # A column at a time: no temporary as large as the stamps.
    if all(((col >= ord("0")) & (col <= ord("9")) if c == ord("0") else col == c).all()
           for c, col in zip(_STAMP, rows.T)):
        try:  # numpy rejects a month, day, hour, minute or second out of range
            ms = np.ndarray(len(rows), dtype="S23", buffer=stamps, strides=(len(_STAMP),)).astype("datetime64[ms]")
            if (ms.view(np.int64) >= _MS_MIN).all():
                return ms.view(np.int64) / 1000
        except ValueError:
            pass
    n = len(_STAMP)
    return np.array([_parse_iso(stamps[k:k + n].decode()) for k in range(0, len(stamps), n)], dtype=np.float64)


# The text of a JSON string, as json.dumps(ensure_ascii=False) writes it.
_str = json.encoder.encode_basestring


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


def _attribute_lists(log: OcelLog, kind: str, types: list[str], decls: dict[str, dict[str, str]],
                     time: str) -> Iterator[str]:
    """The ``attributes`` list text of each ``kind`` ("obj" or "ev") entry of
    ``log``, in the log's order, rendered from its slots one entry at a time.
    ``types`` holds each entry's type; the OCEL type name of each attribute
    is noted in ``decls[type]`` on its first use. ``time`` is written between
    an attribute's name and its value."""
    ptr, name, num, text = (getattr(log, f"{kind}_att_{f}").tolist() for f in ("ptr", "name", "num", "str"))
    names, strings = [_str(n) for n in log.att_names], [_str(v) for v in log.att_strings]
    for t, lo, hi in zip(types, ptr, ptr[1:]):
        if lo == hi:
            yield "[]"
            continue
        bucket, rows = decls[t], []
        for k in range(lo, hi):
            if text[k] < 0:
                value, value_type = float.__repr__(num[k]), "float"
            else:
                value, value_type = strings[text[k]], "string"
            bucket.setdefault(log.att_names[name[k]], value_type)
            rows.append(f'        {{\n          "name": {names[name[k]]},{time}\n'
                        f'          "value": {value}\n        }}')
        yield _array(rows, "      ")


def serialize_ocel_json(log: OcelLog) -> bytes:
    """Serialize back to OCEL 2.0 JSON (UTF-8, millisecond timestamps).

    The bytes are those of ``json.dumps(doc, indent=2, ensure_ascii=False)``
    on the document's dict tree, but written from fixed templates: with
    ``indent`` set, ``json`` runs its pure-Python encoder. Object attribute
    change times are not modeled, so object attributes are emitted with the
    epoch as their time.
    """
    ids = [_str(o) for o in log.objects]
    otypes = list(map(log.object_types.__getitem__, log.obj_type.tolist()))
    otype_attrs: dict[str, dict[str, str]] = {ot: {} for ot in log.object_types}
    obj_atts = _attribute_lists(log, "obj", otypes, otype_attrs, f'\n          "time": "{_EPOCH_ISO}",')
    objects = [f'    {{\n      "id": {o},\n      "type": {_str(ot)},\n      "attributes": {atts}\n    }}'
               for atts, o, ot in zip(obj_atts, ids, otypes)]  # zip runs the generator first, to its end
    acts = list(map(log.activities.__getitem__, log.ev_act.tolist()))
    etype_attrs: dict[str, dict[str, str]] = {a: {} for a in log.activities}
    ev_atts = _attribute_lists(log, "ev", acts, etype_attrs, "")
    ptr, related = log.ev_ptr.tolist(), [ids[c] for c in log.ev_obj.tolist()]
    events = []
    for i, (atts, e, a, stamp) in enumerate(zip(ev_atts, log.events, acts, _iso_stamps(log.ev_time))):
        rels = [f'        {{\n          "objectId": {o},\n          "qualifier": ""\n        }}'
                for o in related[ptr[i]:ptr[i + 1]]]
        events.append(f'    {{\n      "id": {_str(e)},\n      "type": {_str(a)},\n      "time": "{stamp}",\n'
                      f'      "attributes": {atts},\n'
                      f'      "relationships": {_array(rels, "      ")}\n    }}')
    return (f'{{\n  "objectTypes": {_type_decls(otype_attrs)},\n  "eventTypes": {_type_decls(etype_attrs)},\n'
            f'  "objects": {_array(objects, "  ")},\n  "events": {_array(events, "  ")}\n}}\n').encode("utf-8")
