"""Log model: parsing, serialization, total order and the per-object derivations."""

import gc
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ocad.errors import (
    DanglingReference,
    DuplicateId,
    MalformedDocument,
    UnknownObject,
)
from ocad.ocel import T_MAX, T_MIN, OcelLog, _iso_stamps, format_iso, parse_ocel_json, serialize_ocel_json

from conftest import build_log, collections_during, ocel_doc, random_log
from oracles import NaiveDerivations, datetime_iso, json_dumps_serialize


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
    log = parse_ocel_json(doc)
    assert log.act["e1"] == "A"
    assert log.omap["e1"] == frozenset({"o1"})
    assert log.otyp["o1"] == "order"


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
    assert back.ovmap["o1"] == {"amount": 5.0} and type(back.ovmap["o1"]["amount"]) is float
    assert back.vmap["e1"] == {"n": 3.0} and type(back.vmap["e1"]["n"]) is float


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
    doc = ocel_doc(objects=[_object("o1", "a", attrs=[("x", 0.0)])]).replace(b"0.0", literal.encode())
    with pytest.raises(MalformedDocument, match="non-finite"):
        parse_ocel_json(doc)


_GOOD_EVENT = {"id": "e1", "type": "A", "time": "2024-01-01T00:00:00Z", "relationships": [{"objectId": "o1"}]}


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
    | _text
)
_attribute = st.fixed_dictionaries({"name": _ids, "value": st.integers() | st.floats() | _text | _junk},
                                   optional={"time": _times})
_relationship = st.fixed_dictionaries({"objectId": _ids}, optional={"qualifier": _junk})


def _entries(entry):
    """Mostly well-formed entries, sometimes mixed with or replaced by junk."""
    return st.lists(entry, max_size=4) | st.lists(entry | _junk, max_size=3) | _junk


_object_entry = st.fixed_dictionaries({"id": _ids, "type": _ids}, optional={"attributes": _entries(_attribute)})
_event_entry = st.fixed_dictionaries(
    {"id": _ids, "type": _ids, "time": _times},
    optional={"attributes": _entries(_attribute), "relationships": _entries(_relationship)},
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


def test_parse_runs_no_collection():
    from ocad.synthgen import AnomalyKind, SynthConfig, generate_p2p

    log, _ = generate_p2p(SynthConfig(n_orders=300, anomaly_rates={AnomalyKind.DOUBLE_INVOICE: 0.1}, seed=3))
    data = serialize_ocel_json(log)
    assert collections_during(json.loads, data) >= 1  # the same bytes do trigger the collector
    assert collections_during(parse_ocel_json, data) == 0


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
    assert parse_ocel_json(doc).ovmap["o1"]["x"] == 2.0


def test_parse_accepts_offset_and_naive_timestamps():
    doc = ocel_doc(
        events=[
            _event("e1", "A", "2024-01-01T01:00:00+01:00"),
            _event("e2", "A", "2024-01-01T00:00:00"),
        ]
    )
    log = parse_ocel_json(doc)
    assert log.time["e1"] == log.time["e2"]


def test_event_attributes_parsed_into_vmap():
    doc = ocel_doc(events=[_event("e1", "A", "2024-01-01T00:00:00Z", attrs=[("user", "alice"), ("n", 3)])])
    log = parse_ocel_json(doc)
    assert log.vmap["e1"] == {"user": "alice", "n": 3.0}


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


def test_object_graphs_single_event():
    log = build_log([("e1", "A", 1.0, ["o1"])], [("o1", "t")])
    assert log.object_graphs("o1") == (frozenset(), frozenset())


def test_object_graphs_three_chain():
    log = build_log(
        [("e1", "A", 1.0, ["o1"]), ("e2", "B", 2.0, ["o1"]), ("e3", "C", 3.0, ["o1"])],
        [("o1", "t")],
    )
    dfg, efg = log.object_graphs("o1")
    assert dfg == {("e1", "e2"), ("e2", "e3")}
    assert efg == dfg | {("e1", "e3")}


def test_object_graphs_match_pairwise_enumeration():
    log = build_log(
        [(f"e{i}", "A", float(i), ["o1"] if i % 3 else ["o1", "o2"]) for i in range(8)],
        [("o1", "t"), ("o2", "t")],
    )
    naive = NaiveDerivations(log)
    for o in ("o1", "o2"):
        dfg, efg = log.object_graphs(o)
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
    for o in log.objects:
        for p in log.objects:
            if o == p:
                continue
            assert (p in log.interaction_sets(o, log.otyp[p]).interact) == (
                o in log.interaction_sets(p, log.otyp[o]).interact
            )


def test_common_attributes_intersection():
    log = build_log(
        [],
        [
            ("o1", "order", {"amount": 1.0}),
            ("o2", "order", {"amount": 2.0, "vendor": "acme"}),
        ],
    )
    assert log.common_attributes("order") == {"amount"}


def test_common_attributes_single_object():
    log = build_log([], [("o1", "t", {"a": 1.0, "b": "x"})])
    assert log.common_attributes("t") == {"a", "b"}


def test_common_attributes_empty_type_is_empty_set():
    log = build_log([], [])
    assert log.common_attributes("ghost") == frozenset()


def test_common_attributes_match_fold_intersection():
    log = random_log(seed=21, n_objects=50, n_events=40)
    naive = NaiveDerivations(log)
    for ot in log.object_types:
        assert log.common_attributes(ot) == naive.common_attributes(ot)


# -------------------------------------------------------------- invariants

def test_total_order_is_strict():
    log = random_log(seed=5)
    positions = {e: i for i, e in enumerate(log.events)}
    assert len(positions) == len(log.events)
    for e1 in log.events:
        for e2 in log.events:
            if e1 == e2:
                continue
            key1 = (log.time[e1], e1)
            key2 = (log.time[e2], e2)
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
        dfg, efg = log.object_graphs(o)
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
    return OcelLog.build(events, objects)


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


def test_build_permits_empty_omap():
    log = build_log([("e1", "A", 1.0, [])], [("o1", "t")])
    assert log.omap["e1"] == frozenset()
    assert log.lifecycle("o1") == ()
