"""Synthetic P2P generator: determinism, ground truth and planted signals."""

import csv
import gc
import io
import json

import numpy as np
import pytest

from ocad.errors import InvalidConfig
from ocad.features import extract_features
from ocad.ocel import parse_ocel_json, serialize_ocel_json
from ocad.synthgen import (
    ACT_APPROVE_PO,
    ACT_RECEIVE_INVOICE,
    DEFAULT_MEAN_GAP,
    AnomalyKind,
    SynthConfig,
    generate_blocked_invoices,
    generate_p2p,
)

from conftest import collections_during, column, log_dicts


def test_happy_path_single_order():
    log, truth = generate_p2p(SynthConfig(n_orders=1))
    assert len(log.events) == 7
    assert set(log.object_types) == {"requisition", "order", "invoice", "payment"}
    assert truth.labels == {"po-00000": frozenset()}
    order_acts = [log_dicts(log).act[e] for e in log.lifecycle("po-00000")]
    assert order_acts == [
        "Create Purchase Order",
        "Submit Purchase Order for Approval",
        ACT_APPROVE_PO,
        ACT_RECEIVE_INVOICE,
    ]


def test_generation_is_deterministic():
    cfg = SynthConfig(n_orders=10, anomaly_rates={AnomalyKind.MAVERICK_BUYING: 0.1}, seed=42)
    log1, truth1 = generate_p2p(cfg)
    log2, truth2 = generate_p2p(cfg)
    assert serialize_ocel_json(log1) == serialize_ocel_json(log2)
    assert truth1 == truth2


def test_double_invoice_orders_have_two_invoice_interactions():
    cfg = SynthConfig(n_orders=200, anomaly_rates={AnomalyKind.DOUBLE_INVOICE: 0.05}, seed=4)
    log, truth = generate_p2p(cfg)
    F = extract_features(log, "order")
    col = column(F, "interactionsinvoice")
    labeled = truth.labeled(AnomalyKind.DOUBLE_INVOICE)
    assert labeled
    for i, o in enumerate(F.row_ids):
        assert (col[i] >= 2) == (o in labeled)


def test_labeled_fraction_matches_rate():
    rates = {AnomalyKind.MAVERICK_BUYING: 0.13, AnomalyKind.REOPEN_LONG_GAP: 0.07}
    cfg = SynthConfig(n_orders=150, anomaly_rates=rates, seed=1)
    _, truth = generate_p2p(cfg)
    for kind, rate in rates.items():
        frac = len(truth.labeled(kind)) / 150
        assert abs(frac - rate) <= 1.0 / 150


def test_generated_log_round_trips():
    cfg = SynthConfig(
        n_orders=25,
        anomaly_rates={
            AnomalyKind.MAVERICK_BUYING: 0.1,
            AnomalyKind.POST_MORTEM_PR_CHANGE: 0.1,
            AnomalyKind.DOUBLE_INVOICE: 0.1,
            AnomalyKind.REOPEN_LONG_GAP: 0.1,
        },
        seed=9,
    )
    log, _ = generate_p2p(cfg)
    assert parse_ocel_json(serialize_ocel_json(log)) == log


def test_maverick_orders_are_invoiced_before_approval():
    cfg = SynthConfig(n_orders=60, anomaly_rates={AnomalyKind.MAVERICK_BUYING: 0.1}, seed=3)
    log, truth = generate_p2p(cfg)
    pos = {e: i for i, e in enumerate(log.events)}
    act = log_dicts(log).act
    for o in truth.labeled(AnomalyKind.MAVERICK_BUYING):
        acts = {act[e]: pos[e] for e in log.lifecycle(o)}
        assert acts[ACT_RECEIVE_INVOICE] < acts[ACT_APPROVE_PO]


def test_reopen_orders_have_long_gap():
    cfg = SynthConfig(n_orders=60, anomaly_rates={AnomalyKind.REOPEN_LONG_GAP: 0.1}, seed=5)
    log, truth = generate_p2p(cfg)
    time = log_dicts(log).time
    for o in truth.labeled(AnomalyKind.REOPEN_LONG_GAP):
        gaps = np.diff([time[e] for e in log.lifecycle(o)])
        assert gaps.max() >= 100.0 * cfg.mean_gap


def test_every_kind_separates_on_some_feature():
    cfg = SynthConfig(
        n_orders=80,
        anomaly_rates={
            AnomalyKind.MAVERICK_BUYING: 0.1,
            AnomalyKind.POST_MORTEM_PR_CHANGE: 0.1,
            AnomalyKind.DOUBLE_INVOICE: 0.1,
            AnomalyKind.REOPEN_LONG_GAP: 0.05,
        },
        seed=13,
    )
    log, truth = generate_p2p(cfg)
    F = extract_features(log, "order")
    row = {o: i for i, o in enumerate(F.row_ids)}
    for kind in cfg.anomaly_rates:
        labeled = truth.labeled(kind)
        unlabeled = [o for o in F.row_ids if o not in labeled]
        separated = False
        for j in range(len(F.columns)):
            lab_vals = {float(F.values[row[o], j]) for o in labeled}
            unlab_vals = {float(F.values[row[o], j]) for o in unlabeled}
            if not (lab_vals & unlab_vals):
                separated = True
                break
        assert separated, kind


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfig):
        generate_p2p(SynthConfig(n_orders=0))
    with pytest.raises(InvalidConfig):
        generate_p2p(SynthConfig(n_orders=5, anomaly_rates={AnomalyKind.MAVERICK_BUYING: 0.7, AnomalyKind.DOUBLE_INVOICE: 0.6}))
    with pytest.raises(InvalidConfig):
        generate_p2p(SynthConfig(n_orders=5, anomaly_rates={AnomalyKind.MAVERICK_BUYING: -0.1}))
    with pytest.raises(InvalidConfig, match="does not plant BlockedInvoice"):
        generate_p2p(SynthConfig(n_orders=20, anomaly_rates={AnomalyKind.BLOCKED_INVOICE: 0.1}, seed=1))


@pytest.mark.parametrize("mean_gap", [float("inf"), float("nan"), 1e308, 1e12])
def test_mean_gap_that_leaves_the_writable_years_is_rejected(mean_gap):
    with pytest.raises(InvalidConfig):
        generate_p2p(SynthConfig(n_orders=5, mean_gap=mean_gap))
    with pytest.raises(InvalidConfig):
        generate_blocked_invoices(SynthConfig(n_orders=5, mean_gap=mean_gap))


@pytest.mark.parametrize("generate", [generate_p2p, generate_blocked_invoices])
def test_generation_runs_no_collection(generate):
    cfg = SynthConfig(n_orders=300, seed=3)
    data = serialize_ocel_json(generate(cfg)[0])
    assert collections_during(json.loads, data) >= 1  # a log this size does trigger the collector
    assert collections_during(generate, cfg) == 0


@pytest.mark.parametrize("mean_gap", [DEFAULT_MEAN_GAP, 1e308], ids=["valid", "invalid"])
@pytest.mark.parametrize("enabled", [True, False])
def test_generation_restores_the_collector_state(mean_gap, enabled):
    if not enabled:
        gc.disable()
    try:
        try:
            generate_p2p(SynthConfig(n_orders=5, mean_gap=mean_gap))
        except InvalidConfig:  # raised inside the order loop, when a timestamp leaves the writable years
            pass
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_ground_truth_csv_round_trip():
    cfg = SynthConfig(n_orders=20, anomaly_rates={AnomalyKind.DOUBLE_INVOICE: 0.2}, seed=6)
    _, truth = generate_p2p(cfg)
    header, *rows = csv.reader(io.StringIO(truth.to_csv_bytes().decode("utf-8"), newline=""))
    assert header == ["object_id", "anomaly_kinds"]
    back = {oid: frozenset(AnomalyKind(k) for k in kinds.split(";") if k) for oid, kinds in rows}
    assert [r[0] for r in rows] == sorted(truth.labels)
    assert back == truth.labels
    assert len(truth.labeled(AnomalyKind.DOUBLE_INVOICE)) == 4


def test_blocked_variant_labels_invoices_of_unapproved_orders():
    cfg = SynthConfig(n_orders=50, anomaly_rates={AnomalyKind.BLOCKED_INVOICE: 0.1}, seed=2)
    log, truth = generate_blocked_invoices(cfg)
    assert set(truth.labels) == set(log.objects_of_type("invoice"))
    blocked = truth.labeled(AnomalyKind.BLOCKED_INVOICE)
    assert len(blocked) == 5
    act = log_dicts(log).act
    for inv in log.objects_of_type("invoice"):
        order = next(iter(log.interaction_sets(inv, "order").interact))
        order_acts = {act[e] for e in log.lifecycle(order)}
        assert (ACT_APPROVE_PO not in order_acts) == (inv in blocked)
        # the invoice's own lifecycle shape is identical for both arms
        assert [act[e] for e in log.lifecycle(inv)] == [ACT_RECEIVE_INVOICE, "Pay Invoice"]
