"""Log model: parsing, serialization, total order and the per-object derivations."""

import dataclasses
import gc
import hashlib
import itertools
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ocad.cli
import ocad.ocel
from ocad.errors import (
    DanglingReference,
    DuplicateId,
    MalformedDocument,
    UnknownObject,
)
from ocad.cli import main
from ocad.ocel import (
    T_MAX,
    T_MIN,
    OcelLog,
    _assemble,
    _iso_stamps,
    _Slots,
    format_iso,
    parse_ocel_json,
    serialize_ocel_json,
)

from conftest import (attribute_dicts, broken_first_key, build_log, cjk_object_id, collections_during,
                      duplicate_object_id, emoji_object_id, events_first, log_dicts, missing_first_type,
                      missing_last_comma, non_ascii_object_id, not_utf8_in_the_middle, object_graphs, ocel_doc,
                      offset_last_stamp, random_log, unknown_last_object)
from oracles import NaiveDerivations, datetime_iso, json_dumps_serialize, strict_parse
from test_golden import LOGS


def _event(eid, etype, time, objs=(), attrs=()):
    return {
        "id": eid,
        "type": etype,
        "time": time,
        "attributes": [{"name": n, "value": v} for n, v in attrs],
        "relationships": [{"objectId": o, "qualifier": "involves"} for o in objs],
    }


def _object(oid, otype, attrs=()):
    return {
        "id": oid,
        "type": otype,
        "attributes": [{"name": n, "time": "1970-01-01T00:00:00Z", "value": v} for n, v in attrs],
    }


# ---------------------------------------------------------------- parsing

def test_parse_empty_document():
    log = parse_ocel_json(ocel_doc())
    assert log.events == ()
    assert log.objects == ()


def test_parse_minimal_log():
    doc = ocel_doc(
        events=[_event("e1", "A", "2024-05-01T12:00:00Z", objs=["o1"])],
        objects=[_object("o1", "order")],
    )
    d = log_dicts(parse_ocel_json(doc))
    assert d.act["e1"] == "A"
    assert d.omap["e1"] == frozenset({"o1"})
    assert d.otyp["o1"] == "order"


def test_parse_order_breaks_time_ties_lexicographically():
    # two of the five events share a timestamp; the raw-record sort is the oracle
    records = [
        ("e5", "2024-01-01T00:00:02Z"),
        ("e1", "2024-01-01T00:00:05Z"),
        ("e4", "2024-01-01T00:00:02Z"),
        ("e2", "2024-01-01T00:00:01Z"),
        ("e3", "2024-01-01T00:00:09Z"),
    ]
    doc = ocel_doc(events=[_event(e, "A", t) for e, t in records], objects=[])
    log = parse_ocel_json(doc)
    expected = [e for e, _ in sorted(records, key=lambda r: (r[1], r[0]))]
    assert list(log.events) == expected
    assert log.events.index("e4") + 1 == log.events.index("e5")


def test_log_order_is_the_python_sort_by_time_then_id():
    """A trailing NUL sorts after the bare id and -0.0 ties 0.0, through both
    the record path and the parse; events without objects keep integer CSR arrays."""
    cases = [
        [("b", 1.0, ["o1"]), ("a\x00", 1.0, []), ("a", 1.0, ["o2", "o1", "o2"])],
        [("z", 0.0, ["o1"]), ("y", -0.0, []), ("x", 0.0, ["o2"]), ("w", -0.0, ["o1"])],
    ]
    for records in cases:
        log = build_log([(e, "A", t, objs) for e, t, objs in records], [("o1", "order"), ("o2", "order")])
        assert log.events == tuple(e for _, e in sorted((t, e) for e, t, _ in records))
        assert log_dicts(log).omap == {e: frozenset(objs) for e, _, objs in records}
    records = [("b", "2024-01-01T00:00:01Z"), ("a\x00", "2024-01-01T00:00:01Z"), ("a", "2024-01-01T00:00:01Z"),
               ("c", "2024-01-01T00:00:00Z")]
    log = parse_ocel_json(ocel_doc(events=[_event(e, "A", t) for e, t in records]))
    assert log.events == tuple(e for _, e in sorted((log_dicts(log).time[e], e) for e, _ in records))
    assert log.events == ("c", "a", "a\x00", "b")
    for log in (log, build_log([("e1", "A", 1.0, ["o1"]), ("e2", "A", 2.0, [])], [("o1", "order")])):
        assert log.ev_obj.dtype.kind == log.ev_ptr.dtype.kind == "i"
    assert log.ev_ptr.tolist() == [0, 1, 1] and log.ev_obj.tolist() == [0]


def test_parse_rejects_bad_json():
    with pytest.raises(MalformedDocument):
        parse_ocel_json(b"{not json")


def test_parse_rejects_missing_required_keys():
    with pytest.raises(MalformedDocument):
        parse_ocel_json(json.dumps({"objects": []}).encode())


def test_parse_rejects_dangling_reference():
    doc = ocel_doc(events=[_event("e1", "A", "2024-01-01T00:00:00Z", objs=["ghost"])])
    with pytest.raises(DanglingReference):
        parse_ocel_json(doc)


def test_parse_rejects_duplicate_event_id():
    doc = ocel_doc(
        events=[
            _event("e1", "A", "2024-01-01T00:00:00Z"),
            _event("e1", "B", "2024-01-01T00:00:01Z"),
        ]
    )
    with pytest.raises(DuplicateId):
        parse_ocel_json(doc)


def test_parse_rejects_duplicate_object_id():
    doc = ocel_doc(objects=[_object("o1", "a"), _object("o1", "b")])
    with pytest.raises(DuplicateId):
        parse_ocel_json(doc)


def test_parse_rejects_boolean_attribute():
    doc = ocel_doc(objects=[{"id": "o1", "type": "a", "attributes": [{"name": "x", "time": "1970-01-01T00:00:00Z", "value": True}]}])
    with pytest.raises(MalformedDocument):
        parse_ocel_json(doc)


def test_build_stores_an_int_attribute_as_float():
    log = build_log([("e1", "A", 0.0, ["o1"], {"n": 3})], [("o1", "t", {"amount": 5})])
    back = parse_ocel_json(serialize_ocel_json(log))
    assert back == log
    d = log_dicts(back)
    assert d.ovmap["o1"] == {"amount": 5.0} and type(d.ovmap["o1"]["amount"]) is float
    assert d.vmap["e1"] == {"n": 3.0} and type(d.vmap["e1"]["n"]) is float


@pytest.mark.parametrize("value", [True, False, None])
@pytest.mark.parametrize("on", ["object", "event"])
def test_build_rejects_a_bool_or_none_attribute(value, on):
    attrs = {"x": value}
    with pytest.raises(MalformedDocument, match=f"in {on} "):
        if on == "object":
            build_log([], [("o1", "t", attrs)])
        else:
            build_log([("e1", "A", 0.0, ["o1"], attrs)], [("o1", "t")])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("on", ["object", "event"])
def test_parse_rejects_non_finite_attribute(value, on):
    if on == "object":
        doc = ocel_doc(objects=[_object("o1", "a", attrs=[("x", value)])])
    else:
        doc = ocel_doc(events=[_event("e1", "A", "2024-01-01T00:00:00Z", attrs=[("x", value)])])
    with pytest.raises(MalformedDocument, match="non-finite"):
        parse_ocel_json(doc)


@pytest.mark.parametrize("literal", ["1e999", "1" + "0" * 400], ids=["float", "int"])
def test_parse_rejects_out_of_range_number(literal):
    doc = ocel_doc(objects=[_object("o1", "a", attrs=[("x", 0.0)])]).replace(b": 0.0", b": " + literal.encode())
    with pytest.raises(MalformedDocument, match="non-finite"):
        parse_ocel_json(doc)


_GOOD_EVENT = {"id": "e1", "type": "A", "time": "2024-01-01T00:00:00Z", "relationships": [{"objectId": "o1"}]}
_LIST_FIELDS = [("object", "attributes"), ("event", "attributes"), ("event", "relationships")]


def _doc_with(on, key, value):
    """A one-object, one-event document whose object or event sets ``key``
    to ``value``, or drops it when ``value`` is ``...``."""
    obj, event = {"id": "o1", "type": "a"}, dict(_GOOD_EVENT)
    entry = obj if on == "object" else event
    entry.pop(key, None)
    if value is not ...:
        entry[key] = value
    return ocel_doc(events=[event], objects=[obj])


@pytest.mark.parametrize("value", [..., None, []], ids=["missing", "null", "empty"])
@pytest.mark.parametrize("on, key", _LIST_FIELDS)
def test_parse_reads_a_missing_or_null_list_as_empty(on, key, value):
    log = parse_ocel_json(_doc_with(on, key, value))
    assert log.events == ("e1",) and log.objects == ("o1",)


@pytest.mark.parametrize("value", [0, False, "", {}, {"a": 1}, "x"])
@pytest.mark.parametrize("on, key", _LIST_FIELDS)
def test_parse_rejects_a_non_list_attributes_or_relationships(on, key, value):
    with pytest.raises(MalformedDocument, match=f"{key!r} of .* must be a list, got {type(value).__name__}"):
        parse_ocel_json(_doc_with(on, key, value))


@pytest.mark.parametrize(
    "objects, events",
    [
        ([{"id": 1, "type": "a"}, {"id": "o1", "type": "a"}], []),
        ([{"id": "o1", "type": 7}], []),
        ([{"id": "o1", "type": "a", "attributes": [{"name": 3, "value": 1.0}]}], []),
        ([{"id": "o1", "type": "a"}], [_GOOD_EVENT, {**_GOOD_EVENT, "id": 2}]),
        ([{"id": "o1", "type": "a"}], [{**_GOOD_EVENT, "type": None}]),
        ([{"id": "o1", "type": "a"}], [{**_GOOD_EVENT, "relationships": [{"objectId": 5}]}]),
        ([{"id": "o1", "type": "a"}], [{**_GOOD_EVENT, "relationships": [{"objectId": ["o1"]}]}]),
        ([{"id": "o1", "type": "a"}], [{**_GOOD_EVENT, "time": 1700000000}]),
    ],
)
def test_parse_rejects_non_string_ids_types_and_times(objects, events):
    with pytest.raises(MalformedDocument, match="must be a string"):
        parse_ocel_json(ocel_doc(events=events, objects=objects))


@pytest.mark.parametrize(
    "objects, events",
    [
        ([{"id": "o\ud800", "type": "a"}], []),
        ([{"id": "o1", "type": "\udfffa"}], []),
        ([_object("o1", "a", attrs=[("x", "v\ud800")])], []),
        ([{"id": "o1", "type": "a"}], [_event("e1", "A", "2024-01-01T00:00:00Z", attrs=[("x", "\udc80")])]),
        ([{"id": "o1", "type": "a"}], [_event("e1", "A\ud800", "2024-01-01T00:00:00Z")]),
    ],
    ids=["object-id", "object-type", "object-value", "event-value", "activity"],
)
def test_parse_rejects_lone_surrogates(objects, events):
    """A lone surrogate (a JSON ``\\ud800`` escape) cannot be written back as
    UTF-8, so the parser rejects it instead of the serializer failing later."""
    with pytest.raises(MalformedDocument, match="surrogate"):
        parse_ocel_json(ocel_doc(events=events, objects=objects))


# Every code point, lone surrogates included; st.text() never draws those.
_text = st.text(st.characters(codec=None, exclude_categories=()), max_size=4)
_junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=6,
)
_ids = st.sampled_from(["o1", "o2", "e1", ""]) | _text
_times = (
    st.datetimes(timezones=st.none() | st.timezones()).map(lambda d: d.isoformat())
    | st.sampled_from(["2024-01-01T00:00:00Z", "0001-01-01T00:00:00+14:00", "9999-12-31T23:59:59.9999Z"])
    # The canonical form that the parse checks in bulk, valid or not.
    | st.datetimes().map(lambda d: d.isoformat(timespec="milliseconds") + "Z")
    | st.sampled_from(["0000-01-01T00:00:00.000Z", "2023-02-29T00:00:00.000Z", "2024-02-29T00:00:00.000Z",
                       "2024-01-01T23:59:60.000Z", "9999-12-31T23:59:59.999Z"])
    | _text
)
# Every key of an entry, an attribute or a relationship may be missing.
_attribute = st.fixed_dictionaries(
    {}, optional={"name": _ids, "value": st.integers() | st.floats() | _text | _junk, "time": _times})
_relationship = st.fixed_dictionaries({}, optional={"objectId": _ids, "qualifier": _junk})


def _entries(entry):
    """Mostly well-formed entries, sometimes mixed with or replaced by junk."""
    return st.lists(entry, max_size=4) | st.lists(entry | _junk, max_size=3) | _junk


_object_entry = st.fixed_dictionaries({}, optional={"id": _ids, "type": _ids, "attributes": _entries(_attribute)})
_event_entry = st.fixed_dictionaries(
    {}, optional={"id": _ids, "type": _ids, "time": _times, "attributes": _entries(_attribute),
                  "relationships": _entries(_relationship)},
)
_documents = st.fixed_dictionaries(
    {"objects": st.lists(_object_entry, max_size=4) | st.lists(_object_entry | _junk, max_size=3),
     "events": st.lists(_event_entry, max_size=4) | st.lists(_event_entry | _junk, max_size=3)},
    optional={"objectTypes": _junk},
)


@given(_documents)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parse_fuzz_parses_or_rejects_and_serializes(doc):
    """Any JSON document either parses or is rejected as malformed, and every
    log that parses serializes to a document that parses again (timestamps are
    written to the millisecond, so only the ids are compared)."""
    try:
        log = parse_ocel_json(json.dumps(doc).encode("utf-8"))
    except MalformedDocument:
        return
    data = serialize_ocel_json(log)
    assert data == json_dumps_serialize(log)
    again = parse_ocel_json(data)
    assert again.objects == log.objects and sorted(again.events) == sorted(log.events)


@given(st.binary(max_size=32) | st.sampled_from([b"[" * 100_000, b"\xff{}", b'{"objects": [], "events": {}}']))
@settings(max_examples=100, deadline=None)
def test_parse_fuzz_bytes_parse_or_reject(data):
    """Bytes that are not UTF-8, not JSON or nested too deeply are malformed."""
    try:
        parse_ocel_json(data)
    except MalformedDocument:
        pass


@st.composite
def _mutations(draw):
    """A valid document cut at any offset, with one byte changed, or with its
    top-level keys in any order."""
    data = draw(_documents.map(lambda doc: json.dumps(doc).encode("utf-8")) | _logs().map(serialize_ocel_json))
    how = draw(st.sampled_from(["cut", "byte", "reorder"]))
    if how == "reorder":
        return json.dumps(dict(draw(st.permutations(list(json.loads(data).items()))))).encode("utf-8")
    k = draw(st.integers(0, len(data) - 1))
    if how == "cut":
        return data[:k]
    byte = draw(st.sampled_from(b'{}[],:" \t\n\r\\0-.eEnNtf\xc3\xff') | st.integers(0, 255))
    return data[:k] + bytes([byte]) + data[k + 1:]


@given(_mutations())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parse_gives_the_strict_parse_result_on_mutated_documents(data):
    _as_strict_parse(data)


def test_parse_runs_no_collection():
    from ocad.synthgen import AnomalyKind, SynthConfig, generate_p2p

    log, _ = generate_p2p(SynthConfig(n_orders=300, anomaly_rates={AnomalyKind.DOUBLE_INVOICE: 0.1}, seed=3))
    data = serialize_ocel_json(log)
    assert collections_during(json.loads, data) >= 1  # the same bytes do trigger the collector
    assert collections_during(parse_ocel_json, data) == 0
    # The last stamp is not of the form serialization writes: it is read on its own.
    assert collections_during(parse_ocel_json, offset_last_stamp(data)) == 0


@pytest.mark.parametrize("data", [ocel_doc(), b'{"objects": 1}'], ids=["valid", "malformed"])
@pytest.mark.parametrize("enabled", [True, False])
def test_parse_restores_the_collector_state(data, enabled):
    if not enabled:
        gc.disable()
    try:
        try:
            parse_ocel_json(data)
        except MalformedDocument:
            pass
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_parse_keeps_latest_object_attribute_value():
    doc = ocel_doc(
        objects=[
            {
                "id": "o1",
                "type": "a",
                "attributes": [
                    {"name": "x", "time": "2024-01-02T00:00:00Z", "value": 2.0},
                    {"name": "x", "time": "2024-01-01T00:00:00Z", "value": 1.0},
                ],
            }
        ]
    )
    assert log_dicts(parse_ocel_json(doc)).ovmap["o1"]["x"] == 2.0


def test_parse_accepts_offset_and_naive_timestamps():
    doc = ocel_doc(
        events=[
            _event("e1", "A", "2024-01-01T01:00:00+01:00"),
            _event("e2", "A", "2024-01-01T00:00:00"),
        ]
    )
    d = log_dicts(parse_ocel_json(doc))
    assert d.time["e1"] == d.time["e2"]


def test_event_attributes_parsed_into_vmap():
    doc = ocel_doc(events=[_event("e1", "A", "2024-01-01T00:00:00Z", attrs=[("user", "alice"), ("n", 3)])])
    assert log_dicts(parse_ocel_json(doc)).vmap["e1"] == {"user": "alice", "n": 3.0}


class TestCanonicalStamps:
    """The tests above on hand-written documents, with every stamp to the
    second written in the canonical ``.000Z`` form, which the parse checks
    in bulk; as written, each stamp is read on its own."""

    @pytest.fixture(autouse=True)
    def canonical_stamps(self, monkeypatch):
        write = ocel_doc
        monkeypatch.setitem(globals(), "ocel_doc", lambda *args, **kwargs: re.sub(
            rb'(T\d\d:\d\d:\d\d)Z"', rb'\1.000Z"', write(*args, **kwargs)))

    test_parse_minimal_log = staticmethod(test_parse_minimal_log)
    test_parse_order_breaks_time_ties_lexicographically = staticmethod(
        test_parse_order_breaks_time_ties_lexicographically)
    test_log_order_is_the_python_sort_by_time_then_id = staticmethod(test_log_order_is_the_python_sort_by_time_then_id)
    test_parse_rejects_dangling_reference = staticmethod(test_parse_rejects_dangling_reference)
    test_parse_rejects_duplicate_event_id = staticmethod(test_parse_rejects_duplicate_event_id)
    test_parse_rejects_duplicate_object_id = staticmethod(test_parse_rejects_duplicate_object_id)
    test_parse_rejects_boolean_attribute = staticmethod(test_parse_rejects_boolean_attribute)
    test_parse_rejects_non_finite_attribute = staticmethod(test_parse_rejects_non_finite_attribute)
    test_parse_rejects_out_of_range_number = staticmethod(test_parse_rejects_out_of_range_number)
    test_parse_reads_a_missing_or_null_list_as_empty = staticmethod(test_parse_reads_a_missing_or_null_list_as_empty)
    test_parse_rejects_a_non_list_attributes_or_relationships = staticmethod(
        test_parse_rejects_a_non_list_attributes_or_relationships)
    test_parse_rejects_non_string_ids_types_and_times = staticmethod(test_parse_rejects_non_string_ids_types_and_times)
    test_parse_rejects_lone_surrogates = staticmethod(test_parse_rejects_lone_surrogates)
    test_parse_keeps_latest_object_attribute_value = staticmethod(test_parse_keeps_latest_object_attribute_value)
    test_event_attributes_parsed_into_vmap = staticmethod(test_event_attributes_parsed_into_vmap)


# ----------------------------------------------------------- derivations

def test_lifecycle_empty_for_unreferenced_object():
    log = build_log([("e1", "A", 1.0, [])], [("o1", "t")])
    assert log.lifecycle("o1") == ()


def test_lifecycle_direct():
    log = build_log(
        [("e1", "A", 1.0, ["o1"]), ("e2", "B", 2.0, []), ("e3", "C", 3.0, ["o1"])],
        [("o1", "t")],
    )
    assert log.lifecycle("o1") == ("e1", "e3")


def test_lifecycle_unknown_object():
    log = build_log([], [])
    with pytest.raises(UnknownObject):
        log.lifecycle("nope")


def test_lifecycle_matches_membership_scan_on_synthetic_log():
    log = random_log(seed=3, n_events=20)
    naive = NaiveDerivations(log)
    for o in log.objects:
        assert list(log.lifecycle(o)) == naive.lifecycle(o)


def test_log_equality_compares_every_field():
    objects = [("o1", "order", {"amount": 5.0}), ("o2", "invoice", {"n": "a"})]
    events = [("e1", "A", 1.0, ["o1", "o2"], {"user": "u"}), ("e2", "B", 2.0, ["o1"], {})]
    log = build_log(events, objects)

    def changed(i, j, value, records=events):
        return [r[:j] + (value,) + r[j + 1:] if k == i else r for k, r in enumerate(records)]

    assert log != build_log(events, changed(0, 2, {"amount": 6.0}, objects))  # an object attribute
    assert log != build_log(events, changed(1, 1, "order", objects))  # an object type
    assert log != build_log(changed(1, 2, 2.5), objects)  # an event time
    assert log != build_log(changed(1, 1, "C"), objects)  # an activity; the activity codes stay equal
    assert log != build_log(changed(1, 3, ["o2"]), objects)  # a relation to another object
    assert log != build_log(changed(1, 3, ["o1", "o2"]), objects)  # one more relation
    assert log != build_log(changed(0, 4, {"user": "v"}), objects)  # an event attribute
    assert log != None and log != "log"  # noqa: E711
    # Relationships in another order or repeated, and records in another order,
    # give the same log.
    assert log == build_log(changed(0, 3, ["o2", "o1", "o2"]), objects)
    assert log == build_log(changed(1, 3, ["o1", "o1"])[::-1], objects[::-1])


def test_object_graphs_single_event():
    log = build_log([("e1", "A", 1.0, ["o1"])], [("o1", "t")])
    assert object_graphs(log, "o1") == (frozenset(), frozenset())


def test_object_graphs_three_chain():
    log = build_log(
        [("e1", "A", 1.0, ["o1"]), ("e2", "B", 2.0, ["o1"]), ("e3", "C", 3.0, ["o1"])],
        [("o1", "t")],
    )
    dfg, efg = object_graphs(log, "o1")
    assert dfg == {("e1", "e2"), ("e2", "e3")}
    assert efg == dfg | {("e1", "e3")}


def test_object_graphs_match_pairwise_enumeration():
    log = build_log(
        [(f"e{i}", "A", float(i), ["o1"] if i % 3 else ["o1", "o2"]) for i in range(8)],
        [("o1", "t"), ("o2", "t")],
    )
    naive = NaiveDerivations(log)
    for o in ("o1", "o2"):
        dfg, efg = object_graphs(log, o)
        assert set(dfg) == naive.dfg(o)
        assert set(efg) == naive.efg(o)
        n = len(log.lifecycle(o))
        assert len(efg) == n * (n - 1) // 2
        assert len(dfg) == max(n - 1, 0)


def test_interaction_sets_no_shared_events():
    log = build_log(
        [("e1", "A", 1.0, ["o1"]), ("e2", "A", 2.0, ["o2"])],
        [("o1", "t"), ("o2", "t")],
    )
    s = log.interaction_sets("o1", "t")
    assert s.interact == s.creation == s.continuation == s.cobirth == s.codeath == frozenset()


def test_interaction_sets_single_shared_event():
    # a single shared event forces equal start and end times, so the partner
    # lands in cobirth, codeath and (end(o) time == start(o') time) continuation
    log = build_log([("e1", "A", 5.0, ["o1", "o2"])], [("o1", "t"), ("o2", "t")])
    s = log.interaction_sets("o1", "t")
    assert s.interact == {"o2"}
    assert s.cobirth == {"o2"}
    assert s.codeath == {"o2"}
    assert s.creation == frozenset()
    assert s.continuation == {"o2"}


def test_continuation_is_timestamp_equality_not_event_identity():
    # o1 ends at t=7, o2 starts at t=7 in a different event: still continuation
    log = build_log(
        [("e1", "A", 5.0, ["o1"]), ("e2", "B", 7.0, ["o1"]), ("e3", "C", 7.0, ["o2"])],
        [("o1", "t"), ("o2", "t")],
    )
    log2 = build_log(
        [("e1", "A", 5.0, ["o1"]), ("e2", "B", 7.0, ["o1", "o2"]), ("e3", "C", 7.5, ["o2"])],
        [("o1", "t"), ("o2", "t")],
    )
    assert log.interaction_sets("o1", "t").continuation == frozenset()  # no shared event
    assert log2.interaction_sets("o1", "t").continuation == {"o2"}


def test_interaction_sets_match_brute_force_on_p2p(p2p_small):
    log, _ = p2p_small
    naive = NaiveDerivations(log)
    for o in log.objects_of_type("order"):
        for ot in log.object_types:
            s = log.interaction_sets(o, ot)
            interact, creation, continuation, cobirth, codeath = naive.interaction_sets(o, ot)
            assert s.interact == interact
            assert s.creation == creation
            assert s.continuation == continuation
            assert s.cobirth == cobirth
            assert s.codeath == codeath


def test_interaction_subsets_invariant(p2p_small):
    log, _ = p2p_small
    for o in log.objects:
        for ot in log.object_types:
            s = log.interaction_sets(o, ot)
            assert s.creation | s.continuation | s.cobirth | s.codeath <= s.interact
            assert not (s.cobirth & s.creation)


def test_interact_symmetry():
    log = random_log(seed=9)
    otyp = log_dicts(log).otyp
    for o in log.objects:
        for p in log.objects:
            if o == p:
                continue
            assert (p in log.interaction_sets(o, otyp[p]).interact) == (
                o in log.interaction_sets(p, otyp[o]).interact
            )


def test_common_attributes_intersection():
    log = build_log(
        [],
        [
            ("o1", "order", {"amount": 1.0}),
            ("o2", "order", {"amount": 2.0, "vendor": "acme"}),
        ],
    )
    assert NaiveDerivations(log).common_attributes("order") == {"amount"}


def test_common_attributes_single_object():
    log = build_log([], [("o1", "t", {"a": 1.0, "b": "x"})])
    assert NaiveDerivations(log).common_attributes("t") == {"a", "b"}


def test_common_attributes_empty_type_is_empty_set():
    log = build_log([], [])
    assert NaiveDerivations(log).common_attributes("ghost") == frozenset()


# -------------------------------------------------------------- invariants

def test_total_order_is_strict():
    log = random_log(seed=5)
    time = log_dicts(log).time
    positions = {e: i for i, e in enumerate(log.events)}
    assert len(positions) == len(log.events)
    for e1 in log.events:
        for e2 in log.events:
            if e1 == e2:
                continue
            key1 = (time[e1], e1)
            key2 = (time[e2], e2)
            assert (key1 < key2) == (positions[e1] < positions[e2])


def test_lifecycle_sorted_start_end():
    log = random_log(seed=6)
    positions = {e: i for i, e in enumerate(log.events)}
    for o in log.objects:
        lc = log.lifecycle(o)
        assert list(lc) == sorted(lc, key=positions.get)
        if lc:
            assert lc[0] == min(lc, key=positions.get)
            assert lc[-1] == max(lc, key=positions.get)


def test_dfg_transitive_closure_is_efg():
    log = random_log(seed=7)
    for o in log.objects:
        dfg, efg = object_graphs(log, o)
        assert dfg <= efg
        closure = set(dfg)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(closure):
                for (c, d) in list(closure):
                    if b == c and (a, d) not in closure:
                        closure.add((a, d))
                        changed = True
        assert closure == set(efg)


def test_round_trip_identity(p2p_small):
    log, _ = p2p_small
    assert parse_ocel_json(serialize_ocel_json(log)) == log


def test_round_trip_random_logs():
    for seed in range(4):
        log = random_log(seed=seed)
        again = parse_ocel_json(serialize_ocel_json(log))
        assert again == log
        assert serialize_ocel_json(again) == serialize_ocel_json(log)


# Drawn often: characters that json.dumps escapes, characters that it writes
# raw although other encoders escape them (DEL, U+2028), and non-ASCII ones.
# st.characters() adds every other code point except lone surrogates.
_chars = st.sampled_from('"\\\x00\x1f\x7f\n\u2028é名😀') | st.characters(exclude_categories=("Cs",))
_names = st.text(_chars, max_size=4)
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16])
_attrs = st.dictionaries(_names, _finite | _names, max_size=3)
_stamps = (
    st.floats(T_MIN, T_MAX)
    | st.sampled_from([T_MIN, T_MAX, -1.5, -0.0005, 0.0005, 0.0025, 1704067200.0125])
    | st.integers(-(10**12), 10**12).map(lambda halves: halves / 2000)  # half-millisecond ties
)


@st.composite
def _logs(draw):
    objects = draw(st.lists(st.tuples(_names, _names, _attrs), max_size=5, unique_by=lambda r: r[0]))
    related = st.lists(st.sampled_from([o[0] for o in objects]), max_size=3) if objects else st.just([])
    events = draw(st.lists(st.tuples(_names, _names, _stamps, related, _attrs), max_size=6,
                           unique_by=lambda r: r[0]))
    return build_log(events, objects)


@given(_logs())
@example(build_log([], [("o1", "t")]))
@example(build_log([("e1", "A", 0.0, [])], []))
@settings(max_examples=200, deadline=None)
def test_serialize_matches_json_dumps(log):
    """The templated writer writes json.dumps(indent=2, ensure_ascii=False)'s bytes."""
    assert serialize_ocel_json(log) == json_dumps_serialize(log)


def test_serialize_matches_json_dumps_on_synthetic_log(p2p_small):
    log, _ = p2p_small
    assert serialize_ocel_json(log) == json_dumps_serialize(log)


def test_iso_stamps_match_datetime_formatting():
    rng = np.random.default_rng(0)
    halves = rng.integers(round(T_MIN * 2000), round(T_MAX * 2000), 2000)  # half-millisecond ties
    ts = [T_MIN, T_MAX, 0.0, -0.0, -0.0005, 0.0005, 0.0015, 0.0025, -1.2345, 1704067200.0125, -62135596799.9995,
          *(halves / 2000).tolist(), *rng.uniform(T_MIN, T_MAX, 2000).tolist()]
    assert _iso_stamps(ts) == [datetime_iso(t) for t in ts]
    assert [format_iso(t) for t in ts[:11]] == [datetime_iso(t) for t in ts[:11]]
    assert _iso_stamps([]) == []


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), T_MAX + 0.001, T_MIN - 0.001])
def test_iso_stamps_reject_times_outside_the_years_they_can_write(t):
    with pytest.raises(ValueError):
        _iso_stamps([0.0, t])


_ORDER_OBJECTS = [("o1", "t", {"b": "x", "a": 1.0, "c": 2.0}), ("o2", "t", {"c": "y", "a": 3.0})]
_ORDER_EVENTS = [("e1", "A", 1.0, ["o1"], {"v": 1.0, "u": "z"}), ("e2", "A", 2.0, ["o2"], {})]


def test_records_with_attributes_in_another_order_give_the_same_log_and_bytes():
    # Each entry's slots are ascending by name, so the order in which a record
    # gives an entry's attributes does not reach the log.
    log = build_log(_ORDER_EVENTS, _ORDER_OBJECTS)
    reversed_attrs = build_log([(*r[:4], dict(reversed(r[4].items()))) for r in _ORDER_EVENTS],
                               [(*r[:2], dict(reversed(r[2].items()))) for r in _ORDER_OBJECTS])
    assert reversed_attrs == log and serialize_ocel_json(reversed_attrs) == serialize_ocel_json(log)


def test_documents_with_attributes_in_another_order_give_the_same_log_and_bytes():
    # Of a document's object entries for one name, the latest wins, and of
    # those that tie in time the later one; the order of the entries does not
    # reach the log otherwise.
    log = build_log(_ORDER_EVENTS, _ORDER_OBJECTS)
    t0, t1 = "1970-01-01T00:00:00.000Z", "2024-01-01T00:00:00.000Z"
    tied_first, tied_last = {"name": "a", "time": t0, "value": 0.0}, {"name": "a", "time": t0, "value": 1.0}
    o1 = [tied_first, tied_last, {"name": "b", "time": t0, "value": "x"},
          {"name": "c", "time": t1, "value": 2.0}, {"name": "c", "time": t0, "value": 9.0}]
    for atts in itertools.permutations(o1):
        if atts.index(tied_first) > atts.index(tied_last):
            continue
        for ev_atts in ([("u", "z"), ("v", 1.0)], [("v", 1.0), ("u", "z")]):
            doc = ocel_doc(
                objects=[{"id": "o1", "type": "t", "attributes": list(atts)},
                         _object("o2", "t", [("a", 3.0), ("c", "y")])],
                events=[_event("e1", "A", format_iso(1.0), ["o1"], ev_atts),
                        _event("e2", "A", format_iso(2.0), ["o2"])],
            )
            parsed = parse_ocel_json(doc)
            assert parsed == log and serialize_ocel_json(parsed) == serialize_ocel_json(log)


def test_attribute_columns_decode_to_the_records():
    # Objects and events share one code per name and per string value; a name
    # or a string that only an event carries is coded too.
    objects = [("o2", "t", {"amount": 5.0, "grade": "x"}), ("o1", "u", {}), ("o3", "t", {"grade": "y"})]
    events = [("e2", "B", 2.0, ["o1"], {"grade": "x", "note": "late"}), ("e1", "A", 1.0, ["o2"], {"amount": -1.5}),
              ("e3", "A", 3.0, [], {})]
    log = build_log(events, objects)
    assert log.att_names == ("amount", "grade", "note") and log.att_strings == ("late", "x", "y")
    assert attribute_dicts(log, "obj") == [{}, {"amount": 5.0, "grade": "x"}, {"grade": "y"}]
    assert attribute_dicts(log, "ev") == [{"amount": -1.5}, {"grade": "x", "note": "late"}, {}]
    assert parse_ocel_json(serialize_ocel_json(log)) == log


def test_assemble_keeps_only_the_names_that_some_column_uses():
    # A type, an activity, an attribute name and a string value that the
    # first-seen codes hold but no column uses do not reach the log. One is
    # coded first and one last: the last string is where a float's -1 would
    # point if it were taken for a code.
    unused = ("0-unused", "~unused")

    def assembled(pad):
        types, acts, names, strings = ({unused[0]: 0} if pad else {} for _ in range(4))
        obj_slots, ev_slots = _Slots(names, strings), _Slots(names, strings)
        obj_type = [types.setdefault(t, len(types)) for t in ("order", "invoice")]
        obj_slots.add({"amount": 5.0}, "object", "o1")
        obj_slots.add({"n": "a"}, "object", "o2")
        ev_act = [acts.setdefault(a, len(acts)) for a in ("A", "B")]
        ev_slots.add({"user": "u"}, "event", "e1")
        ev_slots.add({"cost": 2.5}, "event", "e2")
        if pad:
            for codes in (types, acts, names, strings):
                codes[unused[1]] = len(codes)
        return _assemble({"o1": 0, "o2": 1}, types, obj_type, obj_slots, ["e1", "e2"], acts, ev_act, [1.0, 2.0],
                         ev_slots, [2, 1], [0, 1, 0])

    log = assembled(False)
    padded = assembled(True)
    for field in ("object_types", "activities", "att_names", "att_strings"):
        assert not set(unused) & set(getattr(padded, field))
    assert padded == log
    assert log == build_log([("e1", "A", 1.0, ["o1", "o2"], {"user": "u"}), ("e2", "B", 2.0, ["o1"], {"cost": 2.5})],
                            [("o1", "order", {"amount": 5.0}), ("o2", "invoice", {"n": "a"})])


def test_attribute_columns_are_sorted_and_ascending_per_entry(p2p_small):
    logs = [p2p_small[0], parse_ocel_json(serialize_ocel_json(p2p_small[0])), build_log([], []),
            build_log(_ORDER_EVENTS, _ORDER_OBJECTS), *(random_log(seed=s) for s in range(3))]
    for log in logs:
        assert list(log.att_names) == sorted(set(log.att_names))
        assert list(log.att_strings) == sorted(set(log.att_strings))
        for kind, n in (("obj", len(log.objects)), ("ev", len(log.events))):
            ptr, name, num, text = (getattr(log, f"{kind}_att_{f}") for f in ("ptr", "name", "num", "str"))
            assert len(ptr) == n + 1 and ptr[0] == 0 and ptr[-1] == len(name) == len(num) == len(text)
            assert np.all(np.diff(ptr) >= 0)
            for lo, hi in zip(ptr[:-1].tolist(), ptr[1:].tolist()):
                assert np.all(np.diff(name[lo:hi]) > 0), (kind, lo)
            assert np.all((0 <= name) & (name < len(log.att_names)))
            assert np.all((-1 <= text) & (text < len(log.att_strings)))
            assert np.all(num[text >= 0] == 0.0) and np.all(np.isfinite(num))


def test_every_log_field_is_an_array_or_a_tuple_of_strings(p2p_small):
    for log in (p2p_small[0], parse_ocel_json(serialize_ocel_json(p2p_small[0])), build_log([], [])):
        for f in dataclasses.fields(log):
            value = getattr(log, f.name)
            assert isinstance(value, np.ndarray) or type(value) is tuple and all(type(v) is str for v in value), f.name


def test_build_permits_empty_omap():
    log = build_log([("e1", "A", 1.0, [])], [("o1", "t")])
    assert log_dicts(log).omap["e1"] == frozenset()
    assert log.lifecycle("o1") == ()


# -------------------------------------------------- the strict parse's results

def _strict(data):
    """The log or the :class:`MalformedDocument` of :func:`oracles.strict_parse`
    on the document ``data``, a fault of its UTF-8 named as the parse names it."""
    try:
        return strict_parse(data.decode("utf-8"))
    except MalformedDocument as exc:
        return exc
    except UnicodeDecodeError as exc:
        return MalformedDocument(f"invalid JSON: {exc}")


def _outcome(result):
    """A log as it is, an error as its type and message."""
    return result if isinstance(result, OcelLog) else (type(result), str(result))


def _no_json_loads(*args, **kwargs):
    pytest.fail("called json.loads")


def _as_strict_parse(data):
    """The log or the :class:`MalformedDocument` of ``parse_ocel_json`` on the
    document ``data``, read without ``json.loads``, after checking that
    :func:`oracles.strict_parse` gives the same log, or an error of the same
    type and message, and that every attribute value is a float or a str."""
    with mock.patch.object(json, "loads", _no_json_loads):
        try:
            log = parse_ocel_json(data)
        except MalformedDocument as exc:
            log = exc
    expected = _strict(data)
    if isinstance(log, OcelLog):
        assert isinstance(expected, OcelLog) and log == expected
        assert all(type(v) in (float, str) for kind in ("obj", "ev") for attrs in attribute_dicts(log, kind)
                   for v in attrs.values())
    else:
        assert (type(log), str(log)) == (type(expected), str(expected))
    return log


def test_parse_reads_the_logs_ocad_writes(p2p_small, tmp_path):
    logs = [serialize_ocel_json(p2p_small[0])]
    for name, argv in LOGS.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        logs.append((tmp_path / name / "log.json").read_bytes())
    for data in logs:
        assert isinstance(_as_strict_parse(data), OcelLog)


@given(_documents.map(lambda doc: json.dumps(doc).encode("utf-8")) | _logs().map(serialize_ocel_json))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parse_gives_the_strict_parse_result_on_any_document(data):
    _as_strict_parse(data)


_STAMP = "2024-01-01T00:00:00.000Z"
_OBJ = {"id": "o1", "type": "a", "attributes": []}
_EV = {"id": "e1", "type": "A", "time": _STAMP, "attributes": [], "relationships": [{"objectId": "o1"}]}


def _attributes(*atts):
    return [{"name": n, "value": v, **({"time": t} if t else {})} for n, v, t in atts]


# Documents the parse could read otherwise than the strict parse: (objects,
# events, whether the document parses). Every stamp to the second is written
# in the canonical form, which the parse checks in bulk. The traps with two
# faults check which fault is reported.
_PARSE_TRAPS = {
    **{f"{on}-{key}-{value!r}": ([{**_OBJ, key: value}] if on == "object" else [_OBJ],
                                 [{**_EV, key: value}] if on == "event" else [_EV], False)
       for on, key in _LIST_FIELDS for value in ({}, 0, "", False)},
    "event-year-0000": ([_OBJ], [{**_EV, "time": "0000-01-01T00:00:00.000Z"}], False),
    "attribute-year-0000": ([{**_OBJ, "attributes": _attributes(("x", 1.0, "0000-01-01T00:00:00.000Z"))}], [_EV],
                            False),
    # Stamps that numpy reads and the strict parse rejects.
    **{f"stamp-{t}": ([_OBJ], [{**_EV, "time": t}], False)
       for t in ("+2024-01-01T00:00:00.00Z", "2024-01-01T00:00:00.00 Z", "2024-01-01T00:00:00.-00Z")},
    "february-29-2023": ([_OBJ], [{**_EV, "time": "2023-02-29T00:00:00.000Z"}], False),
    "leap-second": ([_OBJ], [{**_EV, "time": "2024-01-01T23:59:60.000Z"}], False),
    "last-instant": ([_OBJ], [{**_EV, "time": "9999-12-31T23:59:59.999Z"}], True),
    "event-stamp-with-a-space": ([_OBJ], [{**_EV, "time": "2024-01-01 00:00:00.001Z"}], True),
    # datetime.fromisoformat reads a one-digit fraction from Python 3.11 on
    "event-stamp-with-a-tenth": ([_OBJ], [{**_EV, "time": "2024-01-01T00:00:00.5Z"}], True),
    "int-values": ([{**_OBJ, "attributes": _attributes(("x", 5, _STAMP))}],
                   [{**_EV, "attributes": _attributes(("n", 3, None))}], True),
    "repeated-attribute-name": ([{**_OBJ, "attributes": _attributes(
        ("x", 2.0, "2024-01-02T00:00:00.000Z"), ("x", 1.0, _STAMP),  # the later time wins
        ("y", 1.0, None), ("y", "tie", "1970-01-01T00:00:00.000Z"),  # a missing time is the epoch; the later entry wins
        ("z", True, _STAMP), ("z", 4.0, _STAMP))}], [_EV], True),  # a value that loses is not checked
    "non-ascii-id": ([{**_OBJ, "id": "ö1"}], [{**_EV, "relationships": [{"objectId": "ö1"}]}], True),
    "dangling-reference": ([_OBJ], [{**_EV, "relationships": [{"objectId": "o2"}]}], False),
    "duplicate-object-id": ([_OBJ, {**_OBJ, "type": "b"}], [_EV], False),
    "duplicate-event-id": ([_OBJ], [_EV, {**_EV, "time": "2024-01-02T00:00:00.000Z"}], False),
    "event-attribute-without-value-or-string-name": ([_OBJ], [{**_EV, "attributes": [{"name": 1}]}], False),
    "object-attribute-without-value-or-string-name": ([{**_OBJ, "attributes": [{"name": 1}]}], [_EV], False),
    # Two faults each: the strict parse reports the first fault of form in
    # document order, then the first held fault: objects in document order,
    # each duplicate id before its values; then events, each duplicate id
    # before its unknown objects, before its values.
    "invalid-stamp-then-non-string-id": (
        [_OBJ], [{**_EV, "time": "2023-02-29T00:00:00.000Z"}, {**_EV, "id": 2}], False),
    "duplicate-object-then-malformed-event": ([_OBJ, _OBJ], [{**_EV, "type": 5}], False),
    "unknown-object-then-invalid-stamp": ([_OBJ], [{**_EV, "relationships": [{"objectId": "o2"}]},
                                                   {**_EV, "id": "e2", "time": "2024-13-01T00:00:00.000Z"}], False),
    "event-attribute-true-then-float": (
        [_OBJ], [{**_EV, "attributes": _attributes(("n", True, None), ("n", 2.0, None))}], True),
    "non-string-object-id-then-missing-type": ([{"id": 1}], [], False),
    "non-string-event-id-then-missing-time": ([_OBJ], [{"id": 1, "type": "A"}], False),
    "boolean-value-then-non-string-id": (
        [_OBJ], [{**_EV, "attributes": _attributes(("n", True, None))}, {**_EV, "id": 2}], False),
    "duplicate-event-id-then-unknown-object": ([_OBJ], [_EV, {**_EV, "relationships": [{"objectId": "o2"}]}], False),
    "object-attribute-time-with-a-space": ([{**_OBJ, "attributes": _attributes(
        ("x", 1.0, _STAMP), ("x", 2.0, "2024-01-01 00:00:00.000Z"))}], [_EV], True),  # the later entry wins the tie
}


@pytest.mark.parametrize("objects, events, parses", _PARSE_TRAPS.values(), ids=_PARSE_TRAPS.keys())
def test_parse_gives_the_strict_parse_result_on_its_traps(objects, events, parses):
    assert isinstance(_as_strict_parse(ocel_doc(events=events, objects=objects)), OcelLog) is parses


def _spaced(text):
    """``text`` with whitespace of every kind JSON allows around it and around
    each bracket and separator outside its strings."""
    ws = " \t\n\r"
    return ws + re.sub(r'"(?:[^"\\]|\\.)*"|([][{},:])', lambda m: ws + m[1] + ws if m[1] else m[0], text) + ws


_O, _E = json.dumps([_OBJ]), json.dumps([_EV])
_DEEP = "[" * 100_000 + "]" * 100_000  # nested past any recursion limit
_VALID = f'{{"objects": {_O}, "events": {_E}}}'

# Texts that a stream could read otherwise than one json.loads tree: (text,
# whether the document parses). The last objects and events lists stand, and
# json.loads reports a JSON fault before any fault of the log.
_RAW_PARSE_TRAPS = {
    "events-before-objects": (f'{{"events": {_E}, "objects": {_O}}}', True),
    "objects-twice": (f'{{"objects": [1], "events": {_E}, "objects": {_O}}}', True),  # the second list wins
    "objects-twice-before-events": (f'{{"objects": {_O}, "objects": [], "events": []}}', True),
    "events-twice": (f'{{"objects": {_O}, "events": {_E}, "events": {json.dumps([{**_EV, "id": "e2"}])}}}', True),
    "other-key-twice": (f'{{"objectTypes": 1, "objects": {_O}, "events": {_E}, "objectTypes": 2}}', True),
    "keys-before-between-and-after": (
        f'{{"objectTypes": [{{"name": "a", "attributes": []}}], "x": {{"y": [1, null, "}}]"]}}, "objects": {_O}, '
        f'"eventTypes": [], "z": -1.5e3, "events": {_E}, "tail": "]}}"}}', True),
    "whitespace-everywhere": (_spaced(_VALID), True),
    "whitespace-inside-empty-lists": ('{"objects": [ \t\n\r], "events": [\r\n\t ]}', True),
    "empty-objects": ('{"objects": [], "events": [{"id": "e1", "type": "A", "time": "2024-01-01T00:00:00.000Z"}]}',
                      True),
    "empty-events": (f'{{"objects": {_O}, "events": []}}', True),
    "both-empty": ('{"objects": [], "events": []}', True),
    "trailing-whitespace": (_VALID + " \n", True),
    "trailing-data": (_VALID + " x", False),
    "trailing-object": (_VALID + "{}", False),
    "trailing-comma-after-the-document": (_VALID + ",", False),
    "top-level-array": (f"[{_VALID}]", False),
    "top-level-string": ('"objects"', False),
    "empty-text": ("", False),
    "whitespace-only": (" \n", False),
    "empty-object": ("{}", False),
    "bom": ("\ufeff" + _VALID, False),
    "missing-objects": (f'{{"events": {_E}}}', False),
    "missing-events": (f'{{"objects": {_O}}}', False),
    "objects-not-a-list": (f'{{"objects": {{}}, "events": {_E}}}', False),
    "events-null": (f'{{"objects": {_O}, "events": null}}', False),
    "non-string-key": (f'{{1: 2, "objects": {_O}, "events": {_E}}}', False),
    "missing-colon": (f'{{"objects" {_O}, "events": {_E}}}', False),
    "missing-comma-between-members": (f'{{"objects": {_O} "events": {_E}}}', False),
    "bracket-between-members": (f'{{"objects": {_O}] "events": {_E}}}', False),
    "missing-value": (f'{{"x": , "objects": {_O}, "events": {_E}}}', False),
    "trailing-comma-in-the-document": (f'{{"objects": {_O}, "events": {_E},}}', False),
    "unterminated-document": (f'{{"objects": {_O}, "events": {_E}', False),
    "fault-in-another-member": (f'{{"x": [1,], "objects": {_O}, "events": {_E}}}', False),
    "colon-between-entries": (f'{{"objects": [{json.dumps(_OBJ)}: {json.dumps({**_OBJ, "id": "o2"})}], '
                              f'"events": {_E}}}', False),
    "list-closed-by-a-brace": (f'{{"objects": [{json.dumps(_OBJ)}}}, "events": {_E}}}', False),
    "trailing-comma-in-objects": (f'{{"objects": [{json.dumps(_OBJ)},], "events": {_E}}}', False),
    "entry-nested-past-the-recursion-limit": (
        f'{{"objects": [{{"id": "o1", "type": "a", "attributes": [{{"name": "x", "value": {_DEEP}}}]}}], '
        f'"events": {_E}}}', False),
    "member-nested-past-the-recursion-limit": (f'{{"objectTypes": {_DEEP}, "objects": {_O}, "events": {_E}}}',
                                               False),
    # A fault of the log early in objects, then a JSON fault late in events:
    # json.loads reports the JSON fault.
    "duplicate-object-then-truncated-event": (
        f'{{"objects": [{json.dumps(_OBJ)}, {json.dumps(_OBJ)}], "events": [{json.dumps(_EV)}, {{"id": "e2", "ti',
        False),
    "missing-type-then-trailing-comma": (f'{{"objects": [{{"id": "o1"}}], "events": [{json.dumps(_EV)},]}}', False),
}


@pytest.mark.parametrize("text, parses", _RAW_PARSE_TRAPS.values(), ids=_RAW_PARSE_TRAPS.keys())
def test_parse_gives_the_strict_parse_result_on_its_raw_traps(text, parses):
    assert isinstance(_as_strict_parse(text.encode("utf-8")), OcelLog) is parses


@pytest.mark.parametrize("name", ["keys-before-between-and-after", "whitespace-everywhere",
                                  "whitespace-inside-empty-lists", "empty-objects", "empty-events", "both-empty",
                                  "trailing-whitespace"])
def test_parse_streams_the_traps_with_objects_before_events(name):
    chunks = _CountedChunks(_RAW_PARSE_TRAPS[name][0].encode("utf-8"), 7)
    with mock.patch.object(json, "loads", _no_json_loads):
        assert isinstance(parse_ocel_json(chunks), OcelLog)
    assert len(chunks.handed) == 1


# Raw traps and how often the parse reads their text: once where the first
# pass stands or the walk finds the fault at the end; twice for a JSON fault,
# whose line one more read counts; three times where the entries of the last
# objects and events lists are read again.
_TRAP_READS = {"other-key-twice": 1, "top-level-array": 1, "missing-events": 1, "objects-not-a-list": 1,
               "events-null": 1, "trailing-data": 2, "bom": 2, "missing-colon": 2, "bracket-between-members": 2,
               "unterminated-document": 2, "fault-in-another-member": 2, "duplicate-object-then-truncated-event": 2,
               "missing-type-then-trailing-comma": 2, "events-before-objects": 3, "objects-twice": 3,
               "objects-twice-before-events": 3, "events-twice": 3}


@pytest.mark.parametrize("name, reads", _TRAP_READS.items(), ids=_TRAP_READS.keys())
def test_parse_reads_a_text_again_only_where_the_first_pass_cannot_stand(name, reads):
    text, parses = _RAW_PARSE_TRAPS[name]
    chunks = _CountedChunks(text.encode("utf-8"), 7)
    with mock.patch.object(json, "loads", _no_json_loads):
        try:
            parse_ocel_json(chunks)
        except MalformedDocument:
            assert not parses
    assert len(chunks.handed) == reads


def test_the_first_pass_parses_no_list_that_cannot_stand(monkeypatch):
    """With ``events`` first, the first pass hands the parse no entry, so
    each entry of the log is parsed once, on the second read."""
    handed, parse = [], ocad.ocel._parse
    monkeypatch.setattr(ocad.ocel, "_parse", lambda objects, events: parse(
        (handed.append(e) or e for e in objects), (handed.append(e) or e for e in events)))
    log = parse_ocel_json(_RAW_PARSE_TRAPS["events-before-objects"][0].encode("utf-8"))
    assert len(handed) == len(log.objects) + len(log.events) == 2


@pytest.mark.parametrize("rewrite", [None, offset_last_stamp, non_ascii_object_id, cjk_object_id, emoji_object_id],
                         ids=["plain", "offset-stamp", "non-ascii-id", "cjk-id", "emoji-id"])
def test_load_log_streams_a_valid_log(tmp_path, monkeypatch, rewrite):
    """A valid log with ``objects`` before ``events`` is read once, by the
    stream, without ``json.loads``."""
    out = tmp_path / "gen"
    assert main(["generate", "--n-orders", "200", "--maverick-rate", "0.05", "--postmortem-rate", "0.03",
                 "--double-invoice-rate", "0.05", "--reopen-rate", "0.02", "--seed", "1", "--out", str(out)]) == 0
    path = out / "log.json"
    if rewrite is not None:
        path.write_bytes(rewrite(path.read_bytes()))
    expected = strict_parse(path.read_text(encoding="utf-8"))
    reads = _counted_reads(monkeypatch)
    monkeypatch.setattr(json, "loads", _no_json_loads)
    log, _ = ocad.cli._load_log(str(path))
    assert log == expected and len(reads) == 1


def _counted_reads(monkeypatch):
    """A list that gains an item each time ``cli._load_log`` starts to read
    the file."""
    reads, iterate = [], ocad.cli._LogBytes.__iter__

    def counted(self):
        reads.append(1)
        yield from iterate(self)

    monkeypatch.setattr(ocad.cli._LogBytes, "__iter__", counted)
    return reads


# Texts that a read, or the stream's window, can cut inside a value where a
# prefix scans as another value (1234, 1.5e10, -2.5E-3) or as none (true,
# -Infinity, NaN, an escape, a character outside the BMP, written or
# escaped), or inside a whitespace run longer than a read, between members
# and between entries: one that parses, two with a value that the parse
# holds as a fault, and one with a number for an entry.
_WS_RUN = " \t\n\r" * 4
_CUT = ('{"n": 1234, "x": 1.5e10, "y": -2.5E-3, "t": true, "f": false, "z": null, "i": -Infinity, "nan": NaN, '
        '"s": "\\u00e9", "pair": "\\ud83d\\ude00", "list": [1234, 1.5e10, true],' + _WS_RUN + '"objects": [%s], '
        '"events": [{"id": "e1", "type": "A", "time": "2024-01-01T00:00:00.000Z", "attributes": [{"name": "v", '
        '"value": %s}], "relationships": [{"objectId": "\u00e9\U0001F600"}]}]}')
_CUT_OBJECTS = ('{"id": "\\u00e9\U0001F600", "type": "a", "attributes": [{"name": "n", "value": 1234}, '
                '{"name": "x", "value": 1.5e10}]},' + _WS_RUN + '{"id": "o2", "type": "b"}')
# Then texts where the stream's guess of the place between two entries falls
# inside an entry: a string value that holds the text between the list's first
# two entries, which is then no JSON; a list of objects under an extra key; and
# a compact list, whose only such place in reach is the current entry's start.
_NEXT_ENTRY = '},\n    {\n      "id": '
_CUT_TEXTS = {"valid": _CUT % (_CUT_OBJECTS, "-2.5E-3"), "true-value": _CUT % (_CUT_OBJECTS, "true"),
              "minus-infinity-value": _CUT % (_CUT_OBJECTS, "-Infinity"), "number-entry": _CUT % ("1.5e10", "1"),
              "separator-in-a-string": _CUT % ('{"id": "o0", "type": "a"},\n    {\n      "id": "o1", "type": "a", '
                                               '"attributes": [{"name": "s", "value": "' + _NEXT_ENTRY + '"}]},'
                                               + _WS_RUN + _CUT_OBJECTS, "1"),
              "objects-in-an-extra-key": _CUT % ('{"id": "o0", "type": "a"}, {"id": "o1", "type": "a", '
                                                 '"extra": [{"id": 1}, {"id": 2}]},' + _WS_RUN + _CUT_OBJECTS, "1"),
              "compact-list": _CUT % ('{"id":"\\u00e9\U0001F600","type":"a"},{"id":"o2","type":"b"}', "1")}


@pytest.mark.parametrize("text", _CUT_TEXTS.values(), ids=_CUT_TEXTS.keys())
def test_parse_streams_a_text_cut_anywhere(monkeypatch, text):
    """The bytes in two chunks, cut at any place, also inside a character,
    give the strict parse's log or error line, without ``json.loads``."""
    data = text.encode("utf-8")
    expected = _outcome(_as_strict_parse(data))
    monkeypatch.setattr(json, "loads", _no_json_loads)
    for k in range(len(data) + 1):
        try:
            got = parse_ocel_json([data[:k], data[k:]])
        except MalformedDocument as exc:
            got = exc
        assert _outcome(got) == expected, k


def test_the_window_reads_a_long_entry_again_a_logarithmic_number_of_times(monkeypatch):
    """Fed a byte at a time, the window grows by at least as much as it
    keeps, so an entry of m characters is scanned O(log m) times."""
    entry = json.dumps({**_OBJ, "attributes": _attributes(*((f"a{i}", float(i), None) for i in range(2000)))})
    text = f'{{"objects": [{entry}], "events": []}}'
    scans = []
    scan_once = ocad.ocel._scan_once
    monkeypatch.setattr(ocad.ocel, "_scan_once", lambda text, pos: scans.append(pos) or scan_once(text, pos))
    data = text.encode("utf-8")
    assert parse_ocel_json([data[i:i + 1] for i in range(len(data))]).objects == ("o1",)
    assert len(text) > 60_000 and len(scans) < 50, len(scans)


@pytest.fixture(scope="module")
def log_300(tmp_path_factory):
    """The bytes of a 300-order log with the four P2P anomaly rates."""
    out = tmp_path_factory.mktemp("gen")
    assert main(["generate", "--n-orders", "300", "--maverick-rate", "0.05", "--postmortem-rate", "0.03",
                 "--double-invoice-rate", "0.05", "--reopen-rate", "0.02", "--seed", "1", "--out", str(out)]) == 0
    return (out / "log.json").read_bytes()


def _counted_scans(monkeypatch, most):
    """A list that gains an item at each call of ``ocel._scan_once``; the
    call past ``most`` fails the test, so a stream that does not move forward
    fails instead of scanning without end."""
    scans, scan_once = [], ocad.ocel._json.scan_once

    def counted(text, pos):
        scans.append(pos)
        if len(scans) > most:
            pytest.fail(f"more than {most} scans")
        return scan_once(text, pos)

    monkeypatch.setattr(ocad.ocel, "_scan_once", counted)
    return scans


@pytest.mark.parametrize("layout", [{"indent": 2}, {"separators": (",", ":")}], ids=["indented", "compact"])
def test_every_batch_moves_the_stream_forward(monkeypatch, log_300, layout):
    """The 300-order log, in 64 kB chunks or in two cut at a few places, and
    a complete log of its first 30 events, a byte at a time, give the strict
    parse's log within ten scans an entry, written indented or compact."""
    doc = json.loads(log_300)
    events = doc["events"][:30]
    related = {r["objectId"] for e in events for r in e["relationships"]}
    short = {**doc, "objects": [o for o in doc["objects"] if o["id"] in related], "events": events}
    data, short = (json.dumps(d, ensure_ascii=False, **layout).encode("utf-8") for d in (doc, short))
    n = len(data)
    for text, chunks in [(data, [data[i:i + (1 << 16)] for i in range(0, n, 1 << 16)]),
                         *((data, [data[:k], data[k:]]) for k in (1, n // 3, n // 2 + 7, n - 2)),
                         (short, [short[i:i + 1] for i in range(len(short))])]:
        expected = strict_parse(text.decode("utf-8"))
        _counted_scans(monkeypatch, 10 * (len(expected.objects) + len(expected.events)))
        assert parse_ocel_json(chunks) == expected


def test_the_stream_scans_a_run_of_entries_at_once(monkeypatch, log_300):
    """Read in 64 kB chunks, the 300-order log takes fewer scans than a tenth
    of its entries: the entries between two cuts are scanned as one array."""
    scans = _counted_scans(monkeypatch, len(log_300))
    log = parse_ocel_json([log_300[i:i + (1 << 16)] for i in range(0, len(log_300), 1 << 16)])
    entries = len(log.objects) + len(log.events)
    assert entries > 3000 and len(scans) < entries / 10, (len(scans), entries)


def test_wrong_guesses_scan_each_character_once(monkeypatch):
    """Where the guessed place between two entries falls inside an entry, as
    in a list of objects under an extra key, the text up to it is read an
    entry at a time before the next guess, so the arrays that fail to scan
    hold no character twice."""
    objects = [{"id": f"o{i}", "type": "a", "extra": [{"id": 1}, {"id": 2}]} for i in range(300)]
    data = json.dumps({"objects": objects, "events": []}, separators=(",", ":")).encode("utf-8")
    failed, batch = [], ocad.ocel._batch

    def counted(text, pos, cut):
        entries = batch(text, pos, cut)
        if entries is None:
            failed.append(cut - pos)
        return entries

    monkeypatch.setattr(ocad.ocel, "_batch", counted)
    assert len(parse_ocel_json(data).objects) == 300
    assert failed and sum(failed) <= len(data), (len(failed), sum(failed), len(data))


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    """The bytes of a 12-order log with every P2P anomaly rate set."""
    out = tmp_path_factory.mktemp("gen")
    assert main(["generate", "--n-orders", "12", "--maverick-rate", "0.1", "--postmortem-rate", "0.1",
                 "--double-invoice-rate", "0.1", "--reopen-rate", "0.1", "--seed", "1", "--out", str(out)]) == 0
    return (out / "log.json").read_bytes()


def _load_as_strict_parse(path):
    """The log or the :class:`MalformedDocument` of ``cli._load_log`` on the
    file ``path``, read without ``json.loads``, after checking that
    :func:`oracles.strict_parse` gives the same log, or an error of the same
    type and message, and that a log comes with the file's sha256."""
    data = path.read_bytes()
    with mock.patch.object(json, "loads", _no_json_loads):
        try:
            log, digest = ocad.cli._load_log(str(path))
        except MalformedDocument as exc:
            log = exc
        else:
            assert digest == hashlib.sha256(data).hexdigest()
    assert _outcome(log) == _outcome(_strict(data))
    return log


_FAULTS_OF_THE_LOG = [unknown_last_object, duplicate_object_id, missing_first_type]


_REWRITES = [lambda data: data, offset_last_stamp, non_ascii_object_id, cjk_object_id, emoji_object_id, events_first,
             *_FAULTS_OF_THE_LOG, not_utf8_in_the_middle,
             lambda data: data + "\U0001F600".encode()[:3]]  # a character cut by the end of the file


@pytest.mark.parametrize("read_bytes", [1, 2, 3, 7, ocad.cli._READ_BYTES])
def test_load_log_gives_the_strict_parse_result_at_any_read_size(tmp_path, monkeypatch, small_log, read_bytes):
    """Read ``read_bytes`` at a time, the raw traps, the texts cut inside a
    value and the rewritten logs give the strict parse's log or error line,
    and a log the file's sha256."""
    monkeypatch.setattr(ocad.cli, "_READ_BYTES", read_bytes)
    path = tmp_path / "log.json"
    for data in [*(text.encode("utf-8") for text, _ in _RAW_PARSE_TRAPS.values()),
                 *(text.encode("utf-8") for text in _CUT_TEXTS.values()),
                 *(rewrite(small_log) for rewrite in _REWRITES)]:
        path.write_bytes(data)
        _load_as_strict_parse(path)


@given(_mutations())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
def test_load_log_gives_the_strict_parse_result_on_mutated_documents_read_3_bytes_at_a_time(tmp_path, data):
    path = tmp_path / "log.json"
    path.write_bytes(data)
    with mock.patch.object(ocad.cli, "_READ_BYTES", 3):
        _load_as_strict_parse(path)


@pytest.mark.parametrize("rewrite", _FAULTS_OF_THE_LOG, ids=["unknown-last-object", "duplicate-object-id",
                                                             "missing-first-type"])
def test_load_log_reads_the_lists_again_after_a_fault_of_the_log(tmp_path, monkeypatch, small_log, rewrite):
    """A fault of the log, held to the end or raised where it is read, is
    found again by the stream, once it has read the rest of the text: the
    entries of the last lists are read again, never as the json.loads tree.
    A fault in the objects reads no events again."""
    path = tmp_path / "log.json"
    path.write_bytes(rewrite(small_log))
    expected = _strict(path.read_bytes())
    assert isinstance(expected, MalformedDocument)
    reads = _counted_reads(monkeypatch)
    monkeypatch.setattr(json, "loads", _no_json_loads)
    with pytest.raises(MalformedDocument) as got:
        ocad.cli._load_log(str(path))
    assert _outcome(got.value) == _outcome(expected)
    assert len(reads) == (2 if rewrite is missing_first_type else 3)


def test_load_log_names_a_utf8_fault_at_its_offset_in_the_file_without_reading_it_again(tmp_path, monkeypatch,
                                                                                        small_log):
    """A fault of the UTF-8 found by the stream is named at its offset in
    the whole file, from the offsets of the stream's chunks, without a
    second read."""
    path = tmp_path / "log.json"
    path.write_bytes(not_utf8_in_the_middle(small_log))
    expected = _strict(path.read_bytes())
    monkeypatch.setattr(ocad.cli, "_READ_BYTES", 1000)  # the fault is past the first chunk
    monkeypatch.setattr(ocad.cli.Path, "read_bytes", lambda self: pytest.fail("read the file again whole"))
    reads = _counted_reads(monkeypatch)
    with pytest.raises(MalformedDocument) as got:
        ocad.cli._load_log(str(path))
    assert _outcome(got.value) == _outcome(expected) and len(reads) == 1


@given(st.lists(st.sampled_from(["a", "\n", "é", "中", "😀"]), max_size=12).map("".join),
       st.sampled_from([b"\xff", b"\xc3", b"\xe4\xb8", b"\xf0\x9f\x98", b"\xed\xa0\x80", b"\xc3(", b"\xf4\x90\x80\x80"]),
       st.lists(st.sampled_from(["a", "\n", "中", "😀"]), max_size=6).map("".join), st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_a_utf8_fault_is_named_at_its_offset_in_the_whole_bytes_at_any_chunking(head, fault, tail, size):
    """The stream decodes a chunk at a time, and names a fault of the UTF-8
    as a decode of the whole bytes would, also one that spans two chunks or
    ends the bytes."""
    data = ('{"objects": ["' + head).encode() + fault + (tail + '"]').encode()
    with pytest.raises(MalformedDocument) as got:
        parse_ocel_json([data[i:i + size] for i in range(0, len(data), size)])
    assert _outcome(got.value) == _outcome(_strict(data))


class _CountedChunks:
    """The bytes ``data`` in chunks of ``size`` bytes, each iteration anew;
    ``handed`` counts the chunks that each iteration handed out."""

    def __init__(self, data, size):
        self.chunks, self.handed = [data[i:i + size] for i in range(0, len(data), size)], []

    def __iter__(self):
        self.handed.append(0)
        for chunk in self.chunks:
            self.handed[-1] += 1
            yield chunk


# A JSON fault in the first object entry of a log: one that json.loads names
# in a key, and a value that does not start as one; and one between the
# last two events.
_JSON_FAULTS = {"broken-key": broken_first_key, "not-a-value": lambda data: data.replace(b'"type": "', b'"type": x"', 1),
                "missing-comma": missing_last_comma}


@pytest.mark.parametrize("rewrite", _JSON_FAULTS.values(), ids=_JSON_FAULTS.keys())
def test_a_json_fault_is_named_by_one_more_read_of_the_text(monkeypatch, small_log, rewrite):
    """The stream reads the text to its end, where a scan that still fails
    is a JSON fault, then one more read of the whole text counts the fault's
    line, and would find a fault of the UTF-8 after it. ``json.loads`` is
    never called."""
    data = rewrite(small_log)
    chunks = _CountedChunks(data, 64)
    monkeypatch.setattr(json, "loads", _no_json_loads)
    with pytest.raises(MalformedDocument) as got:
        parse_ocel_json(chunks)
    monkeypatch.undo()
    assert _outcome(got.value) == _outcome(_strict(data))
    assert chunks.handed == [len(chunks.chunks)] * 2 and len(chunks.chunks) > 500


def test_parse_rejects_an_iterator_of_chunks(small_log, tmp_path):
    """An iterator cannot give its chunks again, for the lists of another
    shape or to name a fault, so it is rejected before it is read, whatever
    the document's shape."""
    chunks = iter(events_first(small_log).splitlines(keepends=True))
    with pytest.raises(TypeError, match="an iterator can be read once"):
        parse_ocel_json(chunk for chunk in chunks)
    assert next(chunks).startswith(b"{")
    path = tmp_path / "log.json"
    path.write_bytes(small_log)
    with open(path, "rb") as f, pytest.raises(TypeError, match="an iterator can be read once"):
        parse_ocel_json(f)
    assert parse_ocel_json(path.read_bytes().splitlines(keepends=True)) == parse_ocel_json(small_log)
