"""Deterministic synthetic purchase-to-pay log generator with planted anomalies.

Every order drives a chain of requisition, order, invoice and payment objects
linked through shared events. A configurable fraction of orders is planted
with one anomaly kind each; the generator returns the log together with the
ground-truth labels so detectors can be evaluated against a known answer.

Timestamps are drawn from seeded exponential gaps and quantized to
milliseconds, so serialization round-trips exactly. The generator is a pure
function of its config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._csv import csv_bytes
from .errors import InvalidConfig
from .ocel import T_MAX, T_MIN, OcelLog, _collector_paused

ACT_CREATE_REQ = "Create Requisition"
ACT_APPROVE_REQ = "Approve Requisition"
ACT_CREATE_PO = "Create Purchase Order"
ACT_SUBMIT_PO = "Submit Purchase Order for Approval"
ACT_APPROVE_PO = "Approve Purchase Order"
ACT_RECEIVE_INVOICE = "Receive Invoice"
ACT_PAY_INVOICE = "Pay Invoice"
ACT_CHANGE_REQ = "Change Requisition"
ACT_CLOSE_PO = "Close Purchase Order"
ACT_REOPEN_PO = "(Re)Open Purchase Order"

_VENDORS = ("Acme Corp", "Globex", "Initech", "Umbrella")
_USERS = ("alice", "bob", "carol", "dave")

# 2024-01-01T00:00:00Z
TIME_ORIGIN = 1704067200.0
DEFAULT_MEAN_GAP = 3600.0

REOPEN_GAP_FACTOR = 100.0

# The generator holds the whole log in memory. Its peak is 13.8-16.2 kB per
# order (tracemalloc of an in-process `ocad generate`, 1k-8k orders) and
# 15.7 kB per order (RSS at 128k; ROADMAP.md, item 5), so at 16 kB per order
# this bound keeps a run within a 4 GB budget, half of an 8 GB machine.
MAX_ORDERS = 250_000


class AnomalyKind(Enum):
    MAVERICK_BUYING = "MaverickBuying"
    POST_MORTEM_PR_CHANGE = "PostMortemPRChange"
    DOUBLE_INVOICE = "DoubleInvoice"
    REOPEN_LONG_GAP = "ReopenLongGap"
    BLOCKED_INVOICE = "BlockedInvoice"


@dataclass(frozen=True)
class SynthConfig:
    n_orders: int
    anomaly_rates: dict[AnomalyKind, float] = field(default_factory=dict)
    seed: int = 0
    mean_gap: float = DEFAULT_MEAN_GAP

    def validate(self) -> None:
        if not 1 <= self.n_orders <= MAX_ORDERS:
            raise InvalidConfig(f"n_orders must be in 1..{MAX_ORDERS}, got {self.n_orders}")
        if any(not 0.0 <= r <= 1.0 for r in self.anomaly_rates.values()):
            raise InvalidConfig("anomaly rates must be fractions in [0, 1]")
        if sum(self.anomaly_rates.values()) > 1.0:
            raise InvalidConfig("anomaly rates must sum to at most 1")
        if not (math.isfinite(self.mean_gap) and self.mean_gap > 0):
            raise InvalidConfig(f"mean_gap must be a positive finite number, got {self.mean_gap}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SynthGroundTruth:
    """Planted-anomaly labels; an empty set marks a normal object."""

    labels: dict[str, frozenset[AnomalyKind]]

    def labeled(self, kind: AnomalyKind) -> frozenset[str]:
        return frozenset(o for o, kinds in self.labels.items() if kind in kinds)

    def to_csv_bytes(self) -> bytes:
        return csv_bytes(
            ["object_id", "anomaly_kinds"],
            ([o, ";".join(sorted(k.value for k in self.labels[o]))] for o in sorted(self.labels)),
        )


def _quantize(t: float) -> float:
    if not T_MIN <= t <= T_MAX:
        raise InvalidConfig(f"timestamp {t} falls outside years 0001-9999; mean_gap is too large")
    return round(t * 1000) / 1000.0


def _assign_kinds(cfg: SynthConfig, rng) -> dict[int, AnomalyKind]:
    """Disjoint per-order anomaly assignment; counts are rate * n rounded."""
    perm = rng.permutation(cfg.n_orders)
    assignment: dict[int, AnomalyKind] = {}
    pos = 0
    for kind in sorted(cfg.anomaly_rates, key=lambda k: k.value):
        count = round(cfg.anomaly_rates[kind] * cfg.n_orders)
        for idx in perm[pos : pos + count]:
            assignment[int(idx)] = kind
        pos += count
    return assignment


def _add_chain(raw_events: list, i: int, t: float, chain: list, gaps: list[float]) -> None:
    """Append order ``i``'s ``chain`` of ``(activity, oids, attrs)`` steps as
    ``(time, order, step, activity, oids, attrs)`` records: the first step at
    ``t``, each later one ``gaps[step - 1]`` after the one before."""
    for seq, ((activity, oids, attrs), gap) in enumerate(zip(chain, [0.0, *gaps])):
        t += gap
        raw_events.append((_quantize(t), i, seq, activity, oids, attrs))


def _build_log(raw_events: list, objects: list) -> OcelLog:
    """Sort ``(time, order, step, activity, oids, attrs)`` records by their
    first three fields and number them ``e000000``, ``e000001``, ..."""
    raw_events.sort(key=lambda rec: rec[:3])
    return OcelLog.build(
        [(f"e{n:06d}", activity, t, oids, attrs) for n, (t, _, _, activity, oids, attrs) in enumerate(raw_events)],
        objects,
    )


def _generate(cfg: SynthConfig, order) -> tuple[OcelLog, SynthGroundTruth]:
    """The order loop of both variants. Per order, after the draw of its start,
    ``order(cfg, rng, i, kind, objects)`` appends the order's objects and
    returns the labelled id, its labels, the chain and its gaps."""
    with _collector_paused():
        rng = np.random.default_rng(cfg.seed)
        assignment = _assign_kinds(cfg, rng)
        objects: list[tuple[str, str, dict]] = []
        raw_events: list[tuple[float, int, int, str, list[str], dict]] = []
        labels: dict[str, frozenset[AnomalyKind]] = {}
        chain_start = TIME_ORIGIN
        for i in range(cfg.n_orders):
            chain_start += float(rng.exponential(cfg.mean_gap))
            labelled, labels[labelled], chain, gaps = order(cfg, rng, i, assignment.get(i), objects)
            _add_chain(raw_events, i, chain_start, chain, gaps)
        return _build_log(raw_events, objects), SynthGroundTruth(labels=labels)


def _p2p_order(cfg: SynthConfig, rng, i: int, kind: AnomalyKind | None, objects: list) -> tuple:
    req, po = f"req-{i:05d}", f"po-{i:05d}"
    inv, pay = f"inv-{i:05d}", f"pay-{i:05d}"

    amount = round(float(rng.uniform(100.0, 10000.0)), 2)
    vendor = _VENDORS[int(rng.integers(len(_VENDORS)))]
    approver_req = _USERS[int(rng.integers(len(_USERS)))]
    approver_po = _USERS[int(rng.integers(len(_USERS)))]

    objects.append((req, "requisition", {"amount": amount}))
    objects.append((po, "order", {"amount": amount, "vendor": vendor}))
    objects.append((inv, "invoice", {"amount": amount}))
    objects.append((pay, "payment", {"amount": amount}))

    chain = [
        (ACT_CREATE_REQ, [req], {}),
        (ACT_APPROVE_REQ, [req], {"user": approver_req}),
        (ACT_CREATE_PO, [req, po], {}),
        (ACT_SUBMIT_PO, [po], {}),
        (ACT_APPROVE_PO, [po], {"user": approver_po}),
        (ACT_RECEIVE_INVOICE, [po, inv], {}),
        (ACT_PAY_INVOICE, [inv, pay], {}),
    ]
    if kind is AnomalyKind.MAVERICK_BUYING:
        chain = [chain[k] for k in (0, 2, 5, 6, 3, 4, 1)]
    elif kind is AnomalyKind.POST_MORTEM_PR_CHANGE:
        chain.insert(5, (ACT_CHANGE_REQ, [req, po], {}))
    elif kind is AnomalyKind.DOUBLE_INVOICE:
        inv2, pay2 = f"inv-{i:05d}b", f"pay-{i:05d}b"
        objects.append((inv2, "invoice", {"amount": amount}))
        objects.append((pay2, "payment", {"amount": amount}))
        chain += [(ACT_RECEIVE_INVOICE, [po, inv2], {}), (ACT_PAY_INVOICE, [inv2, pay2], {})]
    elif kind is AnomalyKind.REOPEN_LONG_GAP:
        chain += [(ACT_CLOSE_PO, [po], {}), (ACT_REOPEN_PO, [po], {})]

    gaps = [float(rng.exponential(cfg.mean_gap)) for _ in chain[1:]]
    if kind is AnomalyKind.REOPEN_LONG_GAP:
        gaps[-1] += REOPEN_GAP_FACTOR * cfg.mean_gap
    return po, frozenset([kind] if kind else []), chain, gaps


def generate_p2p(cfg: SynthConfig) -> tuple[OcelLog, SynthGroundTruth]:
    """Generate a purchase-to-pay log with planted order-level anomalies.

    The happy path per order is a 7-event chain (requisition creation and
    approval, order creation, submission and approval, invoicing, payment).
    Each planted kind edits that chain:

    * MaverickBuying: invoicing and payment happen before any approval event
    * PostMortemPRChange: a requisition change (linked to the order) occurs
      after the approvals
    * DoubleInvoice: a second invoice+payment chain on the same order
    * ReopenLongGap: the order is closed and reopened after a gap at least
      100x the mean inter-event gap

    A nonzero BlockedInvoice rate raises :class:`InvalidConfig`: this variant
    does not plant that kind.
    """
    cfg.validate()
    if cfg.anomaly_rates.get(AnomalyKind.BLOCKED_INVOICE):
        raise InvalidConfig("the p2p variant does not plant BlockedInvoice; the blocked-invoices variant does")
    return _generate(cfg, _p2p_order)


def _blocked_order(cfg: SynthConfig, rng, i: int, kind: AnomalyKind | None, objects: list) -> tuple:
    po, inv, pay = f"po-{i:05d}", f"inv-{i:05d}", f"pay-{i:05d}"
    amount = round(float(rng.uniform(100.0, 10000.0)), 2)
    approver = _USERS[int(rng.integers(len(_USERS)))]
    objects.append((po, "order", {"amount": amount}))
    objects.append((inv, "invoice", {"amount": amount}))
    objects.append((pay, "payment", {"amount": amount}))

    chain = [
        (ACT_CREATE_PO, [po], {}),
        (ACT_SUBMIT_PO, [po], {}),
        (ACT_APPROVE_PO, [po], {"user": approver}),
        (ACT_RECEIVE_INVOICE, [po, inv], {}),
        (ACT_PAY_INVOICE, [inv, pay], {}),
    ]
    blocked = kind is AnomalyKind.BLOCKED_INVOICE
    if blocked:
        del chain[1:3]  # no submission, no approval
    # Invoice-local timing is drawn first, identically for both arms,
    # so invoice features carry no label signal.
    invoice_gaps = [float(rng.exponential(cfg.mean_gap)) for _ in range(2)]
    gaps = [float(rng.exponential(cfg.mean_gap)) for _ in chain[1:-2]] + invoice_gaps
    return inv, frozenset([kind] if blocked else []), chain, gaps


def generate_blocked_invoices(cfg: SynthConfig) -> tuple[OcelLog, SynthGroundTruth]:
    """Variant for studying feature propagation: some orders skip approval,
    and exactly their invoices are labeled blocked.

    Invoice lifecycles are identically distributed for blocked and normal
    invoices, so the label is invisible from invoice features alone; the
    signal lives entirely in the related order's features (missing approval
    activities).
    """
    cfg.validate()
    return _generate(cfg, _blocked_order)
