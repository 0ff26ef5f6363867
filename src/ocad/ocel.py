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
columns out, for :meth:`OcelLog.build`, the parse and the synthetic generators
alike: it sorts the codes, orders the events, builds the CSR and sorts each
entry's attribute slots.

Building a log pauses the cyclic garbage collector. The synthetic generators
fill columns and keep no container per entry, but without the pause 8k orders
still run about 10 collections (about 500 when they kept a record per event).
The parse keeps no container per entry and runs none, but without the pause
spawned ``ocad detect`` peaked 1 MB higher.

:func:`parse_ocel_json` decodes the UTF-8 bytes as they come and reads the
text through a window of a chunk or two (:class:`_Window`): the ``objects``
and then the ``events`` entries with ``json``'s C scanner, straight into the
columns, with inline checks such as ``type(v) is str and v.isascii()`` and
event stamps checked in bulk; a value that fails one goes to the checker that
names its fault. The scanner reads a run of entries of at most
:data:`_BATCH_CHARS` characters as one array, up to a guessed place between
two entries, and takes the run only if the array scans whole; otherwise it
reads the next entry alone, which names any fault. Neither the bytes, nor
the text, nor a JSON tree beyond one run is ever whole. Another shape, or a
fault of the log, reads the last lists again, and one more read names a JSON
fault's line.
:func:`serialize_ocel_json` renders the entries from pieces made once per log
and encodes them a chunk at a time.
"""

from __future__ import annotations

import codecs
import gc
import io
import json
import json.encoder
import math
import re
import traceback
from array import array
from bisect import bisect_left
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, Union

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
        # JSON's scanner reads NaN, Infinity and literals such as 1e999: none is a feature.
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

    ``data`` is the document's UTF-8 bytes, or an iterable that gives the
    same chunks of them each time; an iterator cannot be read again and
    raises ``TypeError``. The log or error is that of ``json.loads`` of the
    whole text (:func:`_read`): a JSON fault is named by its line, column and
    offset, counted on one more read, and a UTF-8 fault by its byte offset.
    """
    with _collector_paused():
        chunks = [data] if isinstance(data, bytes) else data
        if iter(chunks) is chunks:
            raise TypeError("parse_ocel_json reads the chunks of a document twice; an iterator can be read once")
        try:
            return _read(chunks)
        except _TextFault as fault:
            traceback.clear_frames(fault.__traceback__)  # frees the failed pass's columns and window
            message, at = fault.args
            raise MalformedDocument(message if at is None else _named(chunks, message, at)) from None


def _read(chunks: Iterable[bytes]) -> OcelLog:
    """The log of the document in ``chunks``: :func:`_parse` of what
    :func:`_walk` streams, which reads the text to its end. Unless the text
    has one ``objects`` and then one ``events`` member and the log holds no
    fault, the entries of each key's last list are read again."""
    members: list[tuple[str, int]] = []
    batches = _walk(_Window(_decoded(chunks)), members)
    try:
        log = _parse(chain.from_iterable(iter(batches.__next__, _END)), chain.from_iterable(batches))
    except MalformedDocument as exc:
        traceback.clear_frames(exc.__traceback__)  # frees the columns before the rest is read
        log = None
    for _ in batches:  # the rest of the text, after a fault of the log
        pass
    if log is not None and [key for key, _ in members] == ["objects", "events"]:
        return log
    log, last = None, dict(members)
    return _parse(*(chain.from_iterable(_walk(_Window(_decoded(chunks)), [], last[key]))
                    for key in ("objects", "events")))


def _decoded(chunks: Iterable[bytes]) -> Iterator[str]:
    """The text of the UTF-8 ``chunks``, a chunk at a time; a fault raises
    :class:`_TextFault` with the message of a decode of the whole bytes."""
    decoder, read = codecs.getincrementaldecoder("utf-8")(), 0
    try:
        for chunk in chunks:
            yield decoder.decode(chunk)
            read += len(chunk)
        yield decoder.decode(b"", True)
    except UnicodeDecodeError as exc:  # its offsets count from the undecoded bytes the decoder kept
        at = read - len(decoder.buffer) + exc.start
        where = (f"byte 0x{exc.object[exc.start]:02x} in position {at}" if exc.end - exc.start == 1
                 else f"bytes in position {at}-{at + exc.end - exc.start - 1}")
        raise _TextFault(f"invalid JSON: 'utf-8' codec can't decode {where}: {exc.reason}", None) from None


def _named(chunks: Iterable[bytes], message: str, at: int) -> str:
    """``message``, of a JSON fault at character ``at``, with its line and
    column, counted on a read of the whole text; or a UTF-8 fault's message."""
    lines, line_start, read = 0, 0, 0
    try:
        for text in _decoded(chunks):
            head = text[:max(at - read, 0)]
            lines += head.count("\n")
            if (k := head.rfind("\n")) >= 0:
                line_start = read + k + 1
            read += len(text)
    except _TextFault as fault:
        return fault.args[0]
    return f"{message}: line {lines + 1} column {at - line_start + 1} (char {at})"


_json = json.JSONDecoder()
_scan_once = _json.scan_once  # the scanner of json.loads
# With the whitespace around it: a separator or a closing bracket, or none; an opening bracket, or none.
_SEP = re.compile(r"[ \t\n\r]*([,:\]}]?)[ \t\n\r]*").match
_OPEN = re.compile(r"[ \t\n\r]*([{[]?)[ \t\n\r]*").match
_HEAD = re.compile(r'\{(?:[ \t\n\r]*"[^"\\]*")?').match  # an object's "{" and its first key, or its "{"
_END = object()  # the end of the objects, between the two lists' entries
# The most characters of list entries that one scan reads as one array. A
# batch's trees take about 5-6 bytes a character of its text, on top of the
# window, so the tracemalloc bounds of reading a 300-order log are what limit
# it; 16k and 64k read an 8k log in the same time.
_BATCH_CHARS = 1 << 14


class _TextFault(Exception):
    """A fault of the text's UTF-8, JSON or shape: its message, and a JSON fault's offset or None."""


class _Window:
    """The part of a text, read chunk by chunk from ``chunks``, that the
    stream reads: ``text`` holds its characters from the offset ``start`` on,
    and through the text's end once ``done``. A match, a value with its
    separator matched after it, or a run of entries with the start of the
    next (:meth:`entries`), is taken only when it ends inside the window or
    the window has reached the end of the text: a value cut by the
    window's end (``12`` of ``1234``, ``1.5`` of ``1.5e10``, ``tr`` of
    ``true``) fails to scan or ends there. Otherwise the window drops what was
    read before the value and grows by at least as much as it keeps, O(m) in
    all for m characters. A scan that fails on the whole rest of the text is
    a JSON fault."""

    __slots__ = ("chunks", "text", "start", "done", "fence")

    def __init__(self, chunks: Iterator[str]) -> None:
        self.chunks, self.text, self.start, self.done = chunks, "", 0, False
        self.fence = 0  # the offset up to which entries are taken one at a time

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
        self.start += pos
        self.text = "".join(parts)
        return 0

    def match(self, pattern, pos: int) -> re.Match:
        """The match of ``pattern``, which matches at any place, at ``pos``."""
        while (m := pattern(self.text, pos)).end() == len(self.text) and not self.done:
            pos = self.grow(pos)
        return m

    def value(self, pos: int) -> tuple[object, re.Match]:
        """The JSON value at ``pos`` and the match of :data:`_SEP` after it,
        or the :meth:`fault` in it, found on the whole rest of the text."""
        while True:
            try:
                value, end = _scan_once(self.text, pos)
                m = _SEP(self.text, end)
                if m[1] and m.end() < len(self.text) or self.done:
                    return value, m
            except (StopIteration, ValueError, RecursionError):  # JSONDecodeError is a ValueError
                if self.done:  # a fault in a value does not depend on what holds it
                    raise self.fault("", pos) from None
            pos = self.grow(pos)

    def entries(self, pos: int, between: str) -> tuple[list, re.Match]:
        """The list entries from ``pos`` to the last place, at most
        :data:`_BATCH_CHARS` on, where ``between`` seems to end one and start
        the next, scanned once as an array, and the match of :data:`_SEP`
        there; else the one entry at ``pos`` and its match, by :meth:`value`.
        ``between`` is a ``}`` and the text from the end of the list's first
        entry to the first key of its second. Text that gave no batch is read
        an entry at a time before the next try, so the tries scan each
        character at most once."""
        text, end = self.text, min(pos + _BATCH_CHARS, len(self.text))
        if self.start + pos >= self.fence:
            cut = text.rfind(between, pos, end) + 1  # past pos, after a "}"; 0 if none
            if cut and (batch := _batch(text, pos, cut)):
                return batch, _SEP(text, cut)
            self.fence = self.start + (cut or end)
        value, m = self.value(pos)
        return [value], m

    def fault(self, prefix: str, pos: int, end: int | None = None) -> _TextFault | None:
        """The first JSON fault ``json`` finds in the text from ``pos`` (to
        ``end``, past a wrong character) after ``prefix``, which opens the
        object or list around ``pos`` again (``{""``, ``[0`` …), or None. Too
        deep a nesting is named without a place, as ``json.loads`` names it."""
        try:
            _json.decode(prefix + self.text[pos:end])
        except json.JSONDecodeError as exc:
            return _TextFault(f"invalid JSON: {exc.msg}", self.start + pos + exc.pos - len(prefix))
        except RecursionError as exc:
            return _TextFault(f"invalid JSON: {exc}", None)


def _between(text: str, sep: re.Match) -> str:
    """The text between a list's entries as it is between its first two: a
    ``}``, the separator ``sep`` and the next entry's ``{`` and first key."""
    head = _HEAD(text, sep.end())  # a match holds the window's text, so it is not kept
    return "}" + sep[0] + (head[0] if head else "{")


def _batch(text: str, pos: int, cut: int) -> list | None:
    """The entries of ``text[pos:cut]``, scanned as one array, or None if
    that array does not scan whole.

    It scans whole only if the cut ends an entry. Each entry the scan reads
    before the last is followed by the same characters as in the text, so it
    is the entry the text holds there. The last ends at the "}" before the
    cut, so it is an object, which ends at its "}" whatever follows. A cut
    inside an entry leaves that entry (a "{", "[" or string) and the array's
    "[" open, and the one "]" after the cut closes one of them at most. The
    array nests one level deeper than an entry scanned alone, so it meets
    too deep a nesting first."""
    try:
        batch, scanned = _scan_once("[" + text[pos:cut] + "]", 0)
    except (StopIteration, ValueError, RecursionError):
        return None
    return batch if scanned == cut - pos + 2 else None


def _walk(w: _Window, members: list[tuple[str, int]], wanted: int | None = None) -> Iterator:
    """Read the JSON text in ``w`` to its end, noting in ``members`` each
    ``objects`` and ``events`` member with its list's offset, -1 for another
    value. Yield the entries of a first ``objects`` list, in lists of those
    read at once (:meth:`_Window.entries`), :data:`_END`, and those of an
    ``events`` list given next; with ``wanted``, those of the list at that
    offset, and stop. Raises :class:`_TextFault` at the first JSON fault,
    else if the text is not an object with those last lists."""
    m = w.match(_OPEN, 0)
    if w.text.startswith("\ufeff"):  # json.loads's own check, before it reads
        raise _TextFault("invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
    if m[1] != "{":
        while not w.done:
            w.grow(0)
        raise w.fault("", 0) or _TextFault("top level must be a JSON object", None)
    while m[1] in ("{", ","):  # a key's prefix opens after a comma, as a "}" after "{" is read first
        pos = m.end()
        if m[1] == "{" and w.text.startswith("}", pos):  # an empty object
            m = w.match(_SEP, pos)
            continue
        if not w.text.startswith('"', pos):
            raise w.fault('{"":0,', pos, pos + 1)
        key, m = w.value(pos)
        if m[1] != ":":
            raise w.fault('{""', m.start(), m.end() + 1)
        pos = m.end()
        at = w.start + pos if w.text.startswith("[", pos) else -1
        if key in ("objects", "events"):
            members.append((key, at))
        if at < 0 or key not in ("objects", "events"):
            _, m = w.value(pos)
            continue
        keep = at == wanted if wanted is not None else (
            [k if a >= 0 else None for k, a in members] == ["objects", "events"][:len(members)])
        m = w.match(_OPEN, pos)
        if w.text.startswith("]", m.end()):
            m = w.match(_SEP, m.end())  # the "]" of an empty list
        else:
            entry, m = w.value(m.end())
            between, batch, w.fence = _between(w.text, m), [entry], 0
            while True:
                if keep:
                    yield batch
                batch = None  # not held while the window grows
                if m[1] != ",":
                    break
                batch, m = w.entries(m.end(), between)
            if m[1] != "]":
                raise w.fault("[0", m.start(), m.end() + 1)
        if at == wanted:
            return
        m = w.match(_SEP, m.end())
        if keep and key == "objects":
            yield _END
    if m[1] != "}":
        raise w.fault('{"":0', m.start(), m.end() + 1)
    if m.end() < len(w.text):
        raise w.fault("{}", m.end(), m.end() + 1)
    for key in ("objects", "events"):
        if dict(members).get(key, -1) < 0:
            raise _TextFault(f"missing required top-level list {key!r}", None)


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
_CHUNK = 4096  # serialize_ocel_json renders and encodes this many entries at a time


def _type_decls(log: OcelLog, kind: str, entry_type: np.ndarray, type_names: tuple[str, ...]) -> str:
    """``objectTypes`` or ``eventTypes`` of the ``kind`` ("obj" or "ev")
    entries, whose codes into ``type_names`` are ``entry_type``: types and
    attribute names sorted by name, each attribute typed by its first slot
    in the log's order."""
    ptr, name, text = (getattr(log, f"{kind}_att_{f}") for f in ("ptr", "name", "str"))
    key, first = np.unique(np.repeat(entry_type.astype(np.int64), np.diff(ptr)) * len(log.att_names) + name,
                           return_index=True)
    decls: dict[str, dict[str, str]] = {t: {} for t in type_names}
    for k, f in zip(key.tolist(), first.tolist()):
        t, n = divmod(k, len(log.att_names))
        decls[type_names[t]][log.att_names[n]] = "float" if text[f] < 0 else "string"
    items = []
    for name, attrs in sorted(decls.items()):
        rows = [f'        {{\n          "name": {_str(n)},\n          "type": "{t}"\n        }}'
                for n, t in sorted(attrs.items())]
        items.append(f'    {{\n      "name": {_str(name)},\n      "attributes": {_array(rows, "      ")}\n    }}')
    return _array(items, "  ")


def _array(items: list[str], indent: str) -> str:
    """JSON list of rendered ``items``, its closing bracket at ``indent``."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _lists(items: list[str], ptr: list[int]) -> list[str]:
    """The JSON list of ``items[ptr[k] - ptr[0]:ptr[k + 1] - ptr[0]]`` for
    each ``k``, its closing bracket at six spaces."""
    a = ptr[0]
    return ["[\n" + ",\n".join(items[i - a:j - a]) + "\n      ]" if i < j else "[]" for i, j in zip(ptr, ptr[1:])]


def _attribute_lists(log: OcelLog, kind: str, strings: list[str], time: str) -> Callable[[int, int], list[str]]:
    """``render(lo, hi)``: the ``attributes`` list text of the ``kind``
    ("obj" or "ev") entries ``lo:hi`` of ``log``, one text per slot. A string
    value's text is in ``strings``; ``time`` is written between an
    attribute's name and its value."""
    ptr, name, num, text = (getattr(log, f"{kind}_att_{f}") for f in ("ptr", "name", "num", "str"))
    heads = [f'        {{\n          "name": {_str(n)},{time}\n          "value": ' for n in log.att_names]

    def render(lo: int, hi: int) -> list[str]:
        at = ptr[lo:hi + 1].tolist()
        a, b = at[0], at[-1]
        return _lists([heads[n] + (strings[s] if s >= 0 else float.__repr__(v)) + "\n        }"
                       for n, v, s in zip(name[a:b].tolist(), num[a:b].tolist(), text[a:b].tolist())], at)

    return render


def _write_list(out: io.BytesIO, n: int, render: Callable[[int, int], list[str]]) -> None:
    """Write the JSON list of ``n`` entries, its closing bracket at two
    spaces, encoding :data:`_CHUNK` entries at a time: ``render(lo, hi)``
    gives the texts of entries ``lo:hi``."""
    if not n:
        out.write(b"[]")
        return
    for lo in range(0, n, _CHUNK):
        out.write(b"[\n" if lo == 0 else b",\n")
        out.write(",\n".join(render(lo, min(lo + _CHUNK, n))).encode("utf-8"))
    out.write(b"\n  ]")


def serialize_ocel_json(log: OcelLog) -> bytes:
    """Serialize back to OCEL 2.0 JSON (UTF-8, millisecond timestamps).

    The bytes are those of ``json.dumps(doc, indent=2, ensure_ascii=False)``
    on the document's dict tree, but written from fixed templates: with
    ``indent`` set, ``json`` runs its pure-Python encoder. The quoted ids,
    the type and activity names, the string values and each object's
    relationship text are rendered once; the entries are rendered and
    encoded :data:`_CHUNK` at a time, so neither their texts nor the whole
    document's text is ever alive at once. Object attribute change times are
    not modeled, so object attributes are emitted with the epoch as their
    time.
    """
    out = io.BytesIO()
    out.write(f'{{\n  "objectTypes": {_type_decls(log, "obj", log.obj_type, log.object_types)},\n'
              f'  "eventTypes": {_type_decls(log, "ev", log.ev_act, log.activities)},\n  "objects": '.encode("utf-8"))
    ids, strings = [_str(o) for o in log.objects], [_str(v) for v in log.att_strings]
    types = [f',\n      "type": {_str(t)},\n      "attributes": ' for t in log.object_types]
    obj_atts = _attribute_lists(log, "obj", strings, f'\n          "time": "{_EPOCH_ISO}",')

    def objects(lo: int, hi: int) -> list[str]:
        return [f'    {{\n      "id": {o}{types[t]}{atts}\n    }}'
                for o, t, atts in zip(ids[lo:hi], log.obj_type[lo:hi].tolist(), obj_atts(lo, hi))]

    _write_list(out, len(log.objects), objects)
    out.write(b',\n  "events": ')
    rels = [f'        {{\n          "objectId": {o},\n          "qualifier": ""\n        }}' for o in ids]
    acts = [f',\n      "type": {_str(a)},\n      "time": "' for a in log.activities]
    ev_atts = _attribute_lists(log, "ev", strings, "")

    def events(lo: int, hi: int) -> list[str]:
        ptr = log.ev_ptr[lo:hi + 1].tolist()
        related = _lists(list(map(rels.__getitem__, log.ev_obj[ptr[0]:ptr[-1]].tolist())), ptr)
        return [f'    {{\n      "id": {_str(e)}{acts[a]}{stamp}",\n      "attributes": {atts},\n'
                f'      "relationships": {rel}\n    }}'
                for e, a, stamp, atts, rel in zip(log.events[lo:hi], log.ev_act[lo:hi].tolist(),
                                                  _iso_stamps(log.ev_time[lo:hi]), ev_atts(lo, hi), related)]

    _write_list(out, len(log.events), events)
    out.write(b"\n}\n")
    return out.getvalue()
