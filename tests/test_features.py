"""Feature extraction, propagation, normalization, filtering and explosion."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocad.errors import (
    AllColumnsDropped,
    EmptyKeepSet,
    InvalidConfig,
    MixedAttributeType,
    NoObjectsOfType,
    TypeMismatch,
    UnknownObject,
)
from ocad.features import (
    FeatureMatrix,
    explode_values,
    extract_features,
    feature_csv_bytes,
    filter_activities,
    normalize,
    propagate_features,
    variance_filter,
)

from conftest import build_log, column, log_dicts, make_matrix, random_log
from oracles import NaiveDerivations, assert_matrix_matches_naive


# ------------------------------------------------------------- extraction

def test_single_event_lifecycle_features():
    log = build_log([("e1", "A", 100.0, ["o1"])], [("o1", "t")])
    F = extract_features(log, "t")
    assert F.row_ids == ("o1",)
    assert column(F, "lifecyclecontainsA")[0] == 1.0
    assert column(F, "lifecyclestartswithA")[0] == 1.0
    assert not any(c.startswith("dfg_") for c in F.columns)
    # duration is 0 for the only row, so the all-zero column is omitted
    assert "lifecycleduration" not in F.columns
    assert column(F, "lifecyclestarttime")[0] == 100.0


def test_aba_lifecycle_counts_and_dfg():
    log = build_log(
        [("e1", "A", 1.0, ["o1"]), ("e2", "B", 2.0, ["o1"]), ("e3", "A", 3.0, ["o1"])],
        [("o1", "t")],
    )
    F = extract_features(log, "t")
    assert column(F, "lifecyclecontainsA")[0] == 2.0
    assert column(F, "lifecyclecontainsB")[0] == 1.0
    assert column(F, "dfg_A_B")[0] == 1.0
    assert column(F, "dfg_B_A")[0] == 1.0


def test_extraction_matches_definition_replay(p2p_small):
    log, _ = p2p_small
    naive = NaiveDerivations(log)
    for ot in log.object_types:
        F = extract_features(log, ot)
        objs, rows = naive.feature_map(ot)
        assert_matrix_matches_naive(F, objs, rows)


def test_extraction_replay_with_cobirth_codeath():
    log = random_log(seed=17, n_objects=15, n_events=30)
    naive = NaiveDerivations(log)
    for ot in log.object_types:
        if not log.objects_of_type(ot):
            continue
        F = extract_features(log, ot, cobirth_codeath=True)
        objs, rows = naive.feature_map(ot, include_cobirth_codeath=True)
        assert_matrix_matches_naive(F, objs, rows)


def test_no_objects_of_type():
    log = build_log([], [])
    with pytest.raises(NoObjectsOfType):
        extract_features(log, "ghost")


def test_mixed_attribute_type_is_an_error():
    log = build_log(
        [],
        [("o1", "t", {"x": 1.0}), ("o2", "t", {"x": "one"})],
    )
    with pytest.raises(MixedAttributeType):
        extract_features(log, "t")


def test_string_attribute_one_hot():
    log = build_log(
        [],
        [("o1", "t", {"v": "a"}), ("o2", "t", {"v": "b"}), ("o3", "t", {"v": "a"})],
    )
    F = extract_features(log, "t")
    assert list(column(F, "strvaluev_a")) == [1.0, 0.0, 1.0]
    assert list(column(F, "strvaluev_b")) == [0.0, 1.0, 0.0]


def test_duration_identity_and_start_onehot(p2p_small):
    log, _ = p2p_small
    F = extract_features(log, "order")
    dur = column(F, "lifecycleduration")
    assert np.allclose(dur, column(F, "lifecycleendtime") - column(F, "lifecyclestarttime"), rtol=1e-12)
    start_cols = [c for c in F.columns if c.startswith("lifecyclestartswith")]
    ones = sum(column(F, c) for c in start_cols)
    assert np.all(ones == 1.0)  # every order has a nonempty lifecycle


def test_start_onehot_all_zero_for_empty_lifecycles():
    log = build_log(
        [("e1", "A", 1.0, ["o1"]), ("e2", "B", 2.0, ["o1", "o2"])],
        [("o1", "t"), ("o2", "t")],
    )
    filtered = filter_activities(log, {"A"})
    F = extract_features(filtered, "t")
    start_cols = [c for c in F.columns if c.startswith("lifecyclestartswith")]
    row = {o: i for i, o in enumerate(F.row_ids)}
    assert sum(column(F, c)[row["o2"]] for c in start_cols) == 0.0
    assert sum(column(F, c)[row["o1"]] for c in start_cols) == 1.0


def test_extraction_memory_follows_the_activities_of_the_rows():
    # Type "b" gives the log one activity per object. The rows of type "a"
    # see one activity, so an n x (every activity) block would take 32 MB
    # per family and copy.
    n = 2000
    log = build_log(
        [(f"ea{i:04d}", "x", float(i + 1), [f"a{i:04d}"]) for i in range(n)]
        + [(f"eb{i:04d}", f"y{i:04d}", float(i + 1), [f"b{i:04d}"]) for i in range(n)],
        [(f"a{i:04d}", "a") for i in range(n)] + [(f"b{i:04d}", "b") for i in range(n)],
    )
    tracemalloc.start()
    try:
        F = extract_features(log, "a")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert F.keys == (("lifecyclecontains", "x"), ("lifecyclestartswith", "x"),
                      ("lifecyclestarttime",), ("lifecycleendtime",))


def test_dfg_edge_codes_do_not_overflow():
    # 46,341 activities: an edge code a1 * 46341 + a2 passes 2**31 - 1.
    m = 46341
    log = build_log([(f"e{k:05d}", f"a{m - 1 - k:06d}", float(k), ["o"]) for k in range(m)], [("o", "t")])
    F = extract_features(log, "t")
    assert [key for key in F.keys if key[0] == "dfg"] == [("dfg", f"a{k + 1:06d}", f"a{k:06d}") for k in range(m - 1)]


# ------------------------------------------------------------ propagation

def _two_orders_with_invoices():
    return build_log(
        [
            ("e1", "Create", 1.0, ["po1"]),
            ("e2", "Invoice", 2.0, ["po1", "i1"], {}),
            ("e3", "Invoice", 3.0, ["po1", "i2"], {}),
            ("e4", "Create", 4.0, ["po2"]),
        ],
        [
            ("po1", "order"),
            ("po2", "order"),
            ("i1", "invoice", {"amount": 10.0}),
            ("i2", "invoice", {"amount": 30.0}),
        ],
    )


def test_propagation_mean_and_empty_neighborhood():
    log = _two_orders_with_invoices()
    base = extract_features(log, "order")
    neighbor = extract_features(log, "invoice")
    out = propagate_features(log, base, neighbor, agg="mean")
    assert out.columns[: len(base.columns)] == base.columns
    row = {o: i for i, o in enumerate(out.row_ids)}
    assert column(out, "propnumvalueamount")[row["po1"]] == 20.0
    prop_cols = [c for c in out.columns if c.startswith("prop")]
    for c in prop_cols:
        assert column(out, c)[row["po2"]] == 0.0  # po2 has no invoices


def test_propagation_rejects_same_type():
    log = _two_orders_with_invoices()
    base = extract_features(log, "order")
    with pytest.raises(TypeMismatch):
        propagate_features(log, base, base)


def test_propagated_overflow_is_inf_and_normalize_rejects_it():
    log = build_log([("e1", "Create", 1.0, ["po1"]), ("e2", "Invoice", 2.0, ["po1", "i1", "i2"]),
                     ("e3", "Create", 3.0, ["po2"])],
                    [("po1", "order"), ("po2", "order"), ("i1", "invoice", {"amount": 1.5e308}),
                     ("i2", "invoice", {"amount": 1.5e308})])
    out = propagate_features(log, extract_features(log, "order"), extract_features(log, "invoice"), agg="sum")
    assert column(out, "propnumvalueamount").tolist() == [np.inf, 0.0]
    with pytest.raises(InvalidConfig, match="column 'propnumvalueamount' spans 0 to inf"):
        normalize(out)


def _with_ghost_row(F):
    return make_matrix(np.vstack([F.values, F.values[:1]]), row_ids=[*F.row_ids, "ghost"], columns=list(F.keys),
                       object_type=F.object_type)


def test_propagation_rejects_a_row_of_either_matrix_not_in_the_log():
    """Base and neighbor rows follow one rule: an id the log lacks raises."""
    log = _two_orders_with_invoices()
    base, neighbor = extract_features(log, "order"), extract_features(log, "invoice")
    for b, nb in ((_with_ghost_row(base), neighbor), (base, _with_ghost_row(neighbor))):
        with pytest.raises(UnknownObject, match="ghost"):
            propagate_features(log, b, nb)


def test_propagation_median_matches_sort_middle_oracle(p2p_small):
    log, _ = p2p_small
    base = extract_features(log, "order")
    neighbor = extract_features(log, "invoice")
    out = propagate_features(log, base, neighbor, agg="median")
    nrow = {o: i for i, o in enumerate(neighbor.row_ids)}
    for i, o in enumerate(base.row_ids):
        partners = sorted(log.interaction_sets(o, "invoice").interact)
        for j, col in enumerate(neighbor.columns):
            got = out.values[i, len(base.columns) + j]
            if not partners:
                assert got == 0.0
                continue
            vals = sorted(float(neighbor.values[nrow[p], j]) for p in partners)
            m = len(vals)
            expected = vals[m // 2] if m % 2 else (vals[m // 2 - 1] + vals[m // 2]) / 2.0
            assert got == pytest.approx(expected, abs=1e-12)


def test_propagation_sum_monotone_in_neighbors():
    log1 = _two_orders_with_invoices()
    events = [
        ("e1", "Create", 1.0, ["po1"]),
        ("e2", "Invoice", 2.0, ["po1", "i1"]),
        ("e3", "Invoice", 3.0, ["po1", "i2"]),
        ("e4", "Create", 4.0, ["po2"]),
        ("e5", "Invoice", 5.0, ["po1", "i3"]),
    ]
    objects = [
        ("po1", "order"),
        ("po2", "order"),
        ("i1", "invoice", {"amount": 10.0}),
        ("i2", "invoice", {"amount": 30.0}),
        ("i3", "invoice", {"amount": 5.0}),
    ]
    log2 = build_log(events, objects)
    out1 = propagate_features(log1, extract_features(log1, "order"), extract_features(log1, "invoice"), agg="sum")
    out2 = propagate_features(log2, extract_features(log2, "order"), extract_features(log2, "invoice"), agg="sum")
    shared = [c for c in out1.columns if c.startswith("prop") and c in out2.columns]
    assert shared
    row1 = {o: i for i, o in enumerate(out1.row_ids)}
    row2 = {o: i for i, o in enumerate(out2.row_ids)}
    for c in shared:
        assert column(out2, c)[row2["po1"]] >= column(out1, c)[row1["po1"]] - 1e-12


# ----------------------------------------------------------- normalization

def test_normalize_endpoints():
    eps = 1e-6
    F = make_matrix([[0.0], [10.0]])
    N = normalize(F, epsilon=eps)
    assert N.values[0, 0] == -1.0
    assert N.values[1, 0] == pytest.approx(1.0 - 2.0 * eps / (10.0 + eps), rel=1e-12)


def test_normalize_constant_column():
    N = normalize(make_matrix([[3.0], [3.0], [3.0]]))
    assert np.all(N.values == -1.0)


def test_normalize_matches_scalar_replay():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 6)) * 100
    N = normalize(make_matrix(X), epsilon=1e-9)
    for j in range(6):
        lo, hi = X[:, j].min(), X[:, j].max()
        for i in range(20):
            expected = -1.0 + 2.0 * (X[i, j] - lo) / (hi - lo + 1e-9)
            assert abs(N.values[i, j] - expected) <= 1e-12


# integer-valued floats keep distinct-value gaps far above float resolution,
# so the strictly-increasing property is observable in float64
@given(
    st.lists(st.integers(min_value=-10**6, max_value=10**6).map(float), min_size=2, max_size=30),
    st.floats(min_value=1e-12, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_normalize_range_and_order(xs, eps):
    N = normalize(make_matrix(xs), epsilon=eps)
    col = N.values[:, 0]
    assert np.all(col >= -1.0) and np.all(col <= 1.0)
    assert col[int(np.argmin(xs))] == -1.0
    for i in range(len(xs)):
        for j in range(len(xs)):
            if xs[i] < xs[j]:
                assert col[i] < col[j]


def test_normalize_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        normalize(make_matrix([[1.0]]), epsilon=0.0)


# -------------------------------------------------------- variance filter

def test_variance_filter_drops_constant():
    F = make_matrix([[1.0, 0.0], [1.0, 1.0]], columns=["const", "varies"])
    out = variance_filter(F, 0.0)
    assert out.columns == ("varies",)


def test_variance_filter_threshold_boundary():
    F = make_matrix([[0.0], [1.0]], columns=["c"])  # population variance 0.25
    assert variance_filter(F, 0.2).columns == ("c",)
    with pytest.raises(AllColumnsDropped):
        variance_filter(F, 0.3)


def test_variance_filter_matches_brute_force():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 50)) * rng.uniform(0, 2, size=50)
    F = make_matrix(X)
    threshold = 0.5
    out = variance_filter(F, threshold)
    expected = []
    for j in range(50):
        mean = sum(X[:, j]) / 30
        var = sum((x - mean) ** 2 for x in X[:, j]) / 30
        if var > threshold:
            expected.append(F.columns[j])
    assert list(out.columns) == expected


def test_variance_filter_preserves_rows_and_order(p2p_small):
    log, _ = p2p_small
    F = extract_features(log, "order")
    out = variance_filter(F, 0.0)
    assert out.row_ids == F.row_ids
    positions = [F.columns.index(c) for c in out.columns]
    assert positions == sorted(positions)


# ------------------------------------------------------- activity filter

def test_filter_activities_identity(p2p_small):
    log, _ = p2p_small
    out = filter_activities(log, set(log.activities))
    assert out == log


def test_filter_activities_can_empty_a_lifecycle():
    log = build_log(
        [("e1", "A", 1.0, ["o1"]), ("e2", "B", 2.0, ["o2"])],
        [("o1", "t"), ("o2", "t")],
    )
    out = filter_activities(log, {"B"})
    assert out.lifecycle("o1") == ()
    assert out.objects == log.objects


def test_filter_activities_counts_match_scan():
    log = random_log(seed=31, n_events=40, n_activities=12)
    keep = set(log.activities[:5])
    out = filter_activities(log, keep)
    act = log_dicts(log).act
    assert len(out.events) == sum(1 for e in log.events if act[e] in keep)
    assert [e for e in log.events if act[e] in keep] == list(out.events)


def test_filter_activities_rejects_empty_keep():
    log = build_log([], [])
    with pytest.raises(EmptyKeepSet):
        filter_activities(log, set())


# ------------------------------------------------------------- explosion

def test_explode_binary_column():
    F = make_matrix([[0.0], [1.0], [1.0], [0.0]], columns=["lifecyclecontainsCancel"])
    out = explode_values(F)
    assert set(out.columns) == {"(lifecyclecontainsCancel=0)", "(lifecyclecontainsCancel=1)"}
    assert column(out, "(lifecyclecontainsCancel=1)").sum() == 2.0
    assert np.array_equal(column(out, "(lifecyclecontainsCancel=1)"), F.values[:, 0])


def test_explode_passes_continuous_through():
    F = make_matrix(np.arange(25, dtype=float), columns=["time"])
    out = explode_values(F)
    assert out.columns == ("time",)
    assert np.array_equal(out.values, F.values)


def test_explode_support_matches_group_by():
    rng = np.random.default_rng(8)
    X = rng.integers(0, 4, size=(40, 3)).astype(float)
    F = make_matrix(X)
    out = explode_values(F)
    for j, col in enumerate(F.columns):
        values, counts = np.unique(X[:, j], return_counts=True)
        for v, c in zip(values, counts):
            name = f"({col}={v:g})"
            assert column(out, name).sum() == c


@given(st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_explode_idempotent_on_indicators(xs):
    F = make_matrix(xs, columns=["flag"])
    out = explode_values(F)
    if 1.0 in xs:
        assert np.array_equal(column(out, "(flag=1)"), F.values[:, 0])


# ------------------------------------------------------------------- CSV

def test_feature_csv_round_trip(p2p_small):
    log, _ = p2p_small
    F = extract_features(log, "order")
    header, *rows = csv.reader(io.StringIO(feature_csv_bytes(F).decode("utf-8"), newline=""))
    assert header == ["object_id", *F.columns]
    assert tuple(r[0] for r in rows) == F.row_ids
    assert np.array_equal(np.array([[float(x) for x in r[1:]] for r in rows]), F.values)


def test_feature_csv_round_trips_a_carriage_return_in_ids_and_headers():
    log = build_log([("e1", "A\rB", 1.0, ["o\r1"]), ("e2", "A", 2.0, ["o2"]), ("e3", "C", 3.0, ["o3\r"])],
                    [("o\r1", "t"), ("o2", "t"), ("o3\r", "t")])
    F = extract_features(log, "t")
    header, *rows = csv.reader(io.StringIO(feature_csv_bytes(F).decode("utf-8"), newline=""))
    assert header == ["object_id", *F.columns] and "lifecyclecontainsA\rB" in header
    assert [r[0] for r in rows] == ["o\r1", "o2", "o3\r"] == list(F.row_ids)
    assert np.array_equal(np.array([[float(x) for x in r[1:]] for r in rows]), F.values)
