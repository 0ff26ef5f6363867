"""The columnar log index: derivations, feature extraction and propagation
on random logs, compared with the brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocad.errors import RowMismatch, UnknownObject
from ocad.features import AGGREGATIONS, extract_features, propagate_features
from ocad.ocel import serialize_ocel_json
from ocad.oracle import abstract_lifecycle
from ocad.synthgen import SynthConfig, generate_p2p

from conftest import build_log, column, make_matrix, random_log
from oracles import NaiveDerivations, assert_matrix_matches_naive, brute_propagate

# Activity names containing "_" whose dfg_<a1>_<a2> column names stay distinct.
ACTIVITIES = ("a", "b_c", "d_e_f", "Create Order", "x_")
assert len({f"{a1}_{a2}" for a1 in ACTIVITIES for a2 in ACTIVITIES}) == len(ACTIVITIES) ** 2

random_logs = st.builds(
    random_log,
    seed=st.integers(0, 2**32 - 1),
    n_objects=st.integers(3, 24),
    n_events=st.integers(0, 40),
    n_types=st.integers(1, 3),
    activities=st.sampled_from([None, ACTIVITIES]),
    tie_share=st.sampled_from([0.0, 0.5]),
    wide_share=st.sampled_from([0.0, 0.2]),
)


@given(random_logs)
@settings(max_examples=60, deadline=None)
def test_derivations_match_naive(log):
    naive = NaiveDerivations(log)
    for o in log.objects:
        assert list(log.lifecycle(o)) == naive.lifecycle(o)
        for ot in log.object_types:
            s = log.interaction_sets(o, ot)
            assert (s.interact, s.creation, s.continuation, s.cobirth, s.codeath) == naive.interaction_sets(o, ot)
    for ot in log.object_types:
        assert set(log.objects_of_type(ot)) == {o for o in log.objects if naive.otyp[o] == ot}


@given(random_logs, st.booleans())
@settings(max_examples=60, deadline=None)
def test_extract_features_matches_naive(log, cobirth_codeath):
    naive = NaiveDerivations(log)
    for ot in log.object_types:
        F = extract_features(log, ot, cobirth_codeath)
        objs, rows = naive.feature_map(ot, include_cobirth_codeath=cobirth_codeath)
        assert_matrix_matches_naive(F, objs, rows, time_tol=0.0)


def _assert_propagation_exact(log, naive, base, neighbor):
    for agg in AGGREGATIONS:
        got = propagate_features(log, base, neighbor, agg=agg)
        columns, values = brute_propagate(naive, base, neighbor, agg)
        assert got.columns == columns
        assert got.values.tobytes() == values.tobytes(), agg


@given(random_logs)
@settings(max_examples=40, deadline=None)
def test_propagate_features_matches_brute_force(log):
    naive = NaiveDerivations(log)
    matrices = {ot: extract_features(log, ot) for ot in log.object_types}
    for ot, base in matrices.items():
        for ot2, neighbor in matrices.items():
            if ot2 != ot:
                _assert_propagation_exact(log, naive, base, neighbor)
                _assert_propagation_exact(log, naive, base, neighbor.select_columns([0]))


def test_propagate_many_partners_matches_brute_force():
    # Hubs with 1..40 partners: numpy sums a one-column stack of 9 or more
    # values pairwise, not left to right, and the propagation must follow.
    rng = np.random.default_rng(0)
    objects, events = [], []
    for h in range(40):
        objects.append((f"hub{h:02d}", "hub"))
        for s in range(h + 1):
            spoke = f"s{h:02d}_{s:02d}"
            objects.append((spoke, "spoke", {"amount": float(rng.normal() * 10.0 ** rng.integers(-3, 9))}))
            events.append((f"e{h:02d}_{s:02d}", "Link", float(h * 100 + s), [f"hub{h:02d}", spoke]))
    log = build_log(events, objects)
    base = extract_features(log, "hub")
    neighbor = extract_features(log, "spoke")
    naive = NaiveDerivations(log)
    _assert_propagation_exact(log, naive, base, neighbor)
    _assert_propagation_exact(log, naive, base, neighbor.select_columns([neighbor.columns.index("numvalueamount")]))


def test_propagate_rejects_partner_missing_from_neighbor_matrix():
    log = build_log(
        [("e1", "A", 1.0, ["o1", "i1"]), ("e2", "A", 2.0, ["o1", "i2"])],
        [("o1", "order"), ("i1", "invoice"), ("i2", "invoice")],
    )
    base = extract_features(log, "order")
    neighbor = make_matrix([[1.0]], row_ids=["i1"], object_type="invoice")
    with pytest.raises(RowMismatch, match="'i2' interacts with 'o1'"):
        propagate_features(log, base, neighbor)


def test_propagate_rejects_base_row_not_in_log():
    log = build_log([("e1", "A", 1.0, ["o1", "i1"])], [("o1", "order"), ("i1", "invoice")])
    base = make_matrix([[1.0]], row_ids=["ghost"], object_type="order")
    with pytest.raises(UnknownObject):
        propagate_features(log, base, extract_features(log, "invoice"))


def test_index_stays_linear_in_a_wide_event():
    # One event over m objects relates m(m-1) ordered pairs; the index holds
    # the m relations only, and the partners are gathered on demand.
    n = 2000
    log = build_log([("e1", "A", 1.0, [f"o{i:04d}" for i in range(n)])], [(f"o{i:04d}", "t") for i in range(n)])
    F = extract_features(log, "t", True)
    held = sum(v.nbytes for v in vars(log).values() if isinstance(v, np.ndarray))
    assert held < 1_000_000
    for family in ("interactions", "cobirth", "codeath"):
        assert F.values[:, F.keys.index((family, "t"))].tolist() == [n - 1.0] * n


def test_index_is_not_part_of_log_equality():
    log = random_log(3)
    twin = random_log(3)
    log.t_start  # noqa: B018 - builds the cached lifecycle arrays on one side only
    assert "lc_ev" in vars(log) and "lc_ev" not in vars(twin)
    assert log == twin


def test_generate_and_serialize_leave_the_index_unbuilt():
    log, _ = generate_p2p(SynthConfig(n_orders=5, seed=1))
    serialize_ocel_json(log)
    assert "lc_ev" not in vars(log)


def test_lookups_tell_apart_ids_that_differ_by_a_trailing_nul():
    # A numpy string array drops trailing NULs, so it would tie "a" with "a\x00".
    log = build_log(
        [("e1", "A", 1.0, ["a", "b"]), ("e2", "B", 2.0, ["a\x00", "b"]), ("e3", "C", 3.0, ["a\x00"])],
        [("a", "t", {"x": 1.0}), ("a\x00", "t\x00", {"x": 2.0}), ("b", "u")],
    )
    assert log.codes(["a\x00", "a", "b"]).tolist() == [1, 0, 2]
    for call in (lambda: log.codes(["a", "a\x00\x00"]), lambda: log.lifecycle("a\x00\x00"),
                 lambda: log.interaction_sets("a\x00\x00", "u")):
        with pytest.raises(UnknownObject) as exc:
            call()
        assert str(exc.value) == "unknown object id 'a\\x00\\x00'"
    assert (log.objects_of_type("t"), log.objects_of_type("t\x00"), log.objects_of_type("t\x00\x00")) == (
        ("a",), ("a\x00",), ())
    assert (log.lifecycle("a"), log.lifecycle("a\x00")) == (("e1",), ("e2", "e3"))
    assert log.interaction_sets("b", "t").interact == {"a"}
    assert log.interaction_sets("b", "t\x00").interact == {"a\x00"}
    assert log.interaction_sets("b", "t\x00\x00").interact == frozenset()
    naive = NaiveDerivations(log)
    base = extract_features(log, "u")
    for ot in ("t", "t\x00"):
        _assert_propagation_exact(log, naive, base, extract_features(log, ot))
    assert column(propagate_features(log, base, extract_features(log, "t\x00")), "propnumvaluex").tolist() == [2.0]
    with pytest.raises(UnknownObject, match="unknown object id 'a.x00.x00'"):
        propagate_features(log, make_matrix([[1.0]], row_ids=["a\x00\x00"], object_type="t"), base)


def test_log_keeps_no_dict():
    log, _ = generate_p2p(SynthConfig(n_orders=5, seed=1))
    base, neighbor = extract_features(log, "invoice"), extract_features(log, "order")
    propagate_features(log, base, neighbor)
    abstract_lifecycle(log, base.row_ids[0])
    assert [name for name, v in vars(log).items() if isinstance(v, dict)] == []
