"""Deterministic synthetic purchase-to-pay log generator with planted anomalies.

Every order drives a chain of requisition, order, invoice and payment objects
linked through shared events. A configurable fraction of orders is planted
with one anomaly kind each; the generator returns the log together with the
ground-truth labels so detectors can be evaluated against a known answer.

Timestamps are drawn from seeded exponential gaps and quantized to
milliseconds, so serialization round-trips exactly. The generator is a pure
function of its config.

An order's objects and chain follow from its kind alone (its shape,
:class:`_Shapes`). So the order loop only draws each order's start, amount,
picks and gaps, into columns; the log's columns follow from those and the
shapes in a few numpy passes, with no record per event, and
``ocel._assemble`` lays them out.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from ._csv import csv_bytes
from .errors import InvalidConfig
from .ocel import T_MAX, T_MIN, OcelLog, _assemble, _collector_paused, _gather, _Slots

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

# The generator holds the whole log in memory. An in-process `ocad generate`
# peaks at 7.5 kB per order at 1k orders and 5.7 kB at 8k (tracemalloc); the
# one run at scale, 15.7 kB per order (RSS at 128k; ROADMAP.md, Baseline),
# predates the attribute columns. So at 16 kB per order this bound keeps a
# run within a 4 GB budget, half of an 8 GB machine.
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
        counts = sorted((kind.value, round(rate * self.n_orders)) for kind, rate in self.anomaly_rates.items())
        if sum(n for _, n in counts) > self.n_orders:  # rates that round up can ask for more orders than there are
            planted = " + ".join(f"{n} {kind}" for kind, n in counts if n)
            raise InvalidConfig(f"the anomaly rates plant {planted} = {sum(n for _, n in counts)} orders, "
                                f"more than n_orders {self.n_orders}")
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


def _quantize(t: np.ndarray) -> np.ndarray:
    """The times ``t`` rounded to the millisecond; raises for the first one,
    in ``t``'s order, that falls outside the years that can be written."""
    outside = ~((t >= T_MIN) & (t <= T_MAX))  # NaN is outside
    if outside.any():
        raise InvalidConfig(f"timestamp {float(t[outside.argmax()])} falls outside years 0001-9999; "
                            "mean_gap is too large")
    return np.round(t * 1000) / 1000.0


def _assign_kinds(cfg: SynthConfig, rng) -> list[AnomalyKind | None]:
    """Disjoint per-order anomaly assignment, the kind of each order or None;
    counts are rate * n rounded, which validate keeps within n."""
    perm = rng.permutation(cfg.n_orders)
    kinds: list[AnomalyKind | None] = [None] * cfg.n_orders
    pos = 0
    for kind in sorted(cfg.anomaly_rates, key=lambda k: k.value):
        count = round(cfg.anomaly_rates[kind] * cfg.n_orders)
        for idx in perm[pos : pos + count].tolist():
            kinds[idx] = kind
        pos += count
    return kinds


# An attribute's value in an order's shape: the order's amount, or the string
# of the order's pick at that position (see the variants' draws).
_AMOUNT = -1
_NAMES = {"amount": 0, "vendor": 1, "user": 2}
_STRINGS = {s: k for k, s in enumerate(_VENDORS + _USERS)}  # a pick is a code into these
_USER = len(_VENDORS)


class _Shapes:
    """A variant's order shapes, one per kind, as tables: per shape its
    objects and its chain's steps; per object its id format, type code and
    attribute slots; per step its activity code, place in the chain, objects
    (by their offset among the order's) and attribute slots; per slot its
    name's code in :data:`_NAMES` and its value (:data:`_AMOUNT` or a pick's
    position). Types and activities are coded in first-seen order in
    ``types`` and ``acts``. A ``*_ptr`` holds where each row's items start in
    the table they index, row after row, and where the last one ends."""

    def __init__(self, shapes: list[tuple[list, list]]) -> None:
        self.types: dict[str, int] = {}
        self.acts: dict[str, int] = {}
        objects = [obj for objs, _ in shapes for obj in objs]
        steps = [step for _, chain in shapes for step in chain]
        self.obj_ptr = _ptr([len(objs) for objs, _ in shapes])
        self.step_ptr = _ptr([len(chain) for _, chain in shapes])
        self.fmt = [fmt for fmt, _, _ in objects]
        self.obj_type = np.array([self.types.setdefault(ot, len(self.types)) for _, ot, _ in objects])
        self.act = np.array([self.acts.setdefault(act, len(self.acts)) for act, _, _ in steps])
        self.place = np.concatenate([np.arange(len(chain)) for _, chain in shapes])
        self.rel_ptr = _ptr([len(offsets) for _, offsets, _ in steps])
        self.rel = np.array([k for _, offsets, _ in steps for k in offsets])
        self.obj_slots = _slot_table([attrs for _, _, attrs in objects])
        self.ev_slots = _slot_table([attrs for _, _, attrs in steps])


def _ptr(sizes: list[int]) -> np.ndarray:
    return np.cumsum([0, *sizes])


def _slot_table(attrs: list[dict[str, int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each row's slots start, and each slot's name code and value."""
    return (_ptr([len(a) for a in attrs]), np.array([_NAMES[n] for a in attrs for n in a], dtype=np.int64),
            np.array([v for a in attrs for v in a.values()], dtype=np.int64))


def _items(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The items of ``rows`` in a table whose row r has the items
    ``ptr[r]:ptr[r + 1]``, row after row: their positions, and each one's
    index into ``rows``."""
    return _gather(np.arange(ptr[-1]), ptr[rows], ptr[rows + 1])


def _slot_columns(table: tuple, rows: np.ndarray, order: np.ndarray, amounts: np.ndarray,
                  picks: np.ndarray) -> list[np.ndarray]:
    """The slot sizes, name codes, floats and string codes of the entries of
    the table's ``rows``, each of the order at its place in ``order``."""
    ptr, name, value = table
    pos, entry = _items(ptr, rows)
    value, order = value[pos], order[entry]
    amount = value == _AMOUNT
    return [ptr[rows + 1] - ptr[rows], name[pos], np.where(amount, amounts[order], 0.0),
            np.where(amount, -1, picks[order, value])]


def _filled(sizes, name, num, text) -> _Slots:
    slots = _Slots(_NAMES, _STRINGS)
    slots.sizes, slots.name, slots.num, slots.text = sizes, name, num, text
    return slots


@dataclass(frozen=True)
class _Variant:
    """The kinds a variant plants, the first None (any other kind takes its
    plain shape); the shape of each; the offset of an order's labelled
    object; and ``draw(cfg, rng, kind, steps)``, the draws of one order after
    its start: its amount, its picks and the gaps between its ``steps``
    steps."""

    kinds: tuple[AnomalyKind | None, ...]
    shapes: _Shapes
    labelled: int
    draw: Callable[..., tuple[float, tuple[int, ...], list[float]]]


def _generate(cfg: SynthConfig, variant: _Variant) -> tuple[OcelLog, SynthGroundTruth]:
    """The order loop of both variants: per order, the draw of its start and
    ``variant.draw``, into columns. The log's columns follow from them and
    the orders' shapes, and :func:`ocel._assemble` lays them out."""
    with _collector_paused():
        rng = np.random.default_rng(cfg.seed)
        kinds = _assign_kinds(cfg, rng)
        shapes, index = variant.shapes, {kind: s for s, kind in enumerate(variant.kinds)}
        shape = np.array([index.get(kind, 0) for kind in kinds])
        steps = np.diff(shapes.step_ptr).tolist()
        starts, amounts, picks, gaps = array("d"), array("d"), array("q"), array("d")
        chain_start = TIME_ORIGIN
        for kind, s in zip(kinds, shape.tolist()):
            chain_start += float(rng.exponential(cfg.mean_gap))
            starts.append(chain_start)
            amount, order_picks, order_gaps = variant.draw(cfg, rng, kind, steps[s])
            amounts.append(amount)
            picks.extend(order_picks)
            gaps.extend(order_gaps)
        amounts, picks = np.asarray(amounts), np.asarray(picks).reshape(cfg.n_orders, -1)

        obj_rows, obj_order = _items(shapes.obj_ptr, shape)
        ids = list(map(str.__mod__, map(shapes.fmt.__getitem__, obj_rows.tolist()), obj_order.tolist()))
        counts = np.diff(shapes.obj_ptr)[shape]
        base = np.cumsum(counts) - counts  # each order's first object code

        step_rows, ev_order = _items(shapes.step_ptr, shape)
        place = shapes.place[step_rows]
        t = np.empty(len(step_rows))
        t[place == 0], t[place > 0] = starts, gaps
        with np.errstate(over="ignore"):  # as Python floats, a sum too large is inf
            for k in range(1, int(place.max()) + 1):  # each step's time: the one before's plus its gap
                at = np.flatnonzero(place == k)
                t[at] += t[at - 1]
        t = _quantize(t)
        perm = np.lexsort((place, ev_order, t))  # by time, order and step
        step_rows, ev_order, t = step_rows[perm], ev_order[perm], t[perm]
        rel, rel_ev = _items(shapes.rel_ptr, step_rows)

        obj_slots = _slot_columns(shapes.obj_slots, obj_rows, obj_order, amounts, picks)
        ev_slots = _slot_columns(shapes.ev_slots, step_rows, ev_order, amounts, picks)
        log = _assemble(dict(zip(ids, range(len(ids)))), shapes.types, shapes.obj_type[obj_rows],
                        _filled(*obj_slots), list(map("e%06d".__mod__, range(len(t)))), shapes.acts,
                        shapes.act[step_rows], t, _filled(*ev_slots), np.diff(shapes.rel_ptr)[step_rows],
                        shapes.rel[rel] + base[ev_order[rel_ev]])
        label = {kind: frozenset([kind]) for kind in variant.kinds[1:]}
        labelled = map(ids.__getitem__, (base + variant.labelled).tolist())
        return log, SynthGroundTruth(labels=dict(zip(labelled, (label.get(k, frozenset()) for k in kinds))))


def _p2p_shape(kind: AnomalyKind | None) -> tuple[list, list]:
    """An order's objects (id format, type, attributes) and chain (activity,
    objects by their offset, attributes) under ``kind``."""
    req, po, inv, pay, inv2, pay2 = range(6)
    objects = [
        ("req-%05d", "requisition", {"amount": _AMOUNT}),
        ("po-%05d", "order", {"amount": _AMOUNT, "vendor": 0}),
        ("inv-%05d", "invoice", {"amount": _AMOUNT}),
        ("pay-%05d", "payment", {"amount": _AMOUNT}),
    ]
    chain = [
        (ACT_CREATE_REQ, [req], {}),
        (ACT_APPROVE_REQ, [req], {"user": 1}),
        (ACT_CREATE_PO, [req, po], {}),
        (ACT_SUBMIT_PO, [po], {}),
        (ACT_APPROVE_PO, [po], {"user": 2}),
        (ACT_RECEIVE_INVOICE, [po, inv], {}),
        (ACT_PAY_INVOICE, [inv, pay], {}),
    ]
    if kind is AnomalyKind.MAVERICK_BUYING:
        chain = [chain[k] for k in (0, 2, 5, 6, 3, 4, 1)]
    elif kind is AnomalyKind.POST_MORTEM_PR_CHANGE:
        chain.insert(5, (ACT_CHANGE_REQ, [req, po], {}))
    elif kind is AnomalyKind.DOUBLE_INVOICE:
        objects += [("inv-%05db", "invoice", {"amount": _AMOUNT}), ("pay-%05db", "payment", {"amount": _AMOUNT})]
        chain += [(ACT_RECEIVE_INVOICE, [po, inv2], {}), (ACT_PAY_INVOICE, [inv2, pay2], {})]
    elif kind is AnomalyKind.REOPEN_LONG_GAP:
        chain += [(ACT_CLOSE_PO, [po], {}), (ACT_REOPEN_PO, [po], {})]
    return objects, chain


def _p2p_draws(cfg: SynthConfig, rng, kind: AnomalyKind | None, steps: int) -> tuple:
    """The amount; the vendor, requisition approver and order approver; the gaps."""
    amount = round(float(rng.uniform(100.0, 10000.0)), 2)
    picks = (int(rng.integers(len(_VENDORS))), _USER + int(rng.integers(len(_USERS))),
             _USER + int(rng.integers(len(_USERS))))
    gaps = rng.exponential(cfg.mean_gap, steps - 1).tolist()  # the same draws as one call a gap
    if kind is AnomalyKind.REOPEN_LONG_GAP:
        gaps[-1] += REOPEN_GAP_FACTOR * cfg.mean_gap
    return amount, picks, gaps


_P2P_KINDS = (None, AnomalyKind.MAVERICK_BUYING, AnomalyKind.POST_MORTEM_PR_CHANGE, AnomalyKind.DOUBLE_INVOICE,
              AnomalyKind.REOPEN_LONG_GAP)
_P2P = _Variant(_P2P_KINDS, _Shapes([_p2p_shape(kind) for kind in _P2P_KINDS]), 1, _p2p_draws)  # labels po


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
    return _generate(cfg, _P2P)


def _blocked_shape(blocked: bool) -> tuple[list, list]:
    po, inv, pay = range(3)
    objects = [("po-%05d", "order", {"amount": _AMOUNT}), ("inv-%05d", "invoice", {"amount": _AMOUNT}),
               ("pay-%05d", "payment", {"amount": _AMOUNT})]
    chain = [
        (ACT_CREATE_PO, [po], {}),
        (ACT_SUBMIT_PO, [po], {}),
        (ACT_APPROVE_PO, [po], {"user": 0}),
        (ACT_RECEIVE_INVOICE, [po, inv], {}),
        (ACT_PAY_INVOICE, [inv, pay], {}),
    ]
    if blocked:
        del chain[1:3]  # no submission, no approval
    return objects, chain


def _blocked_draws(cfg: SynthConfig, rng, kind: AnomalyKind | None, steps: int) -> tuple:
    """The amount; the approver; the gaps."""
    amount = round(float(rng.uniform(100.0, 10000.0)), 2)
    picks = (_USER + int(rng.integers(len(_USERS))),)
    # Invoice-local timing is drawn first, identically for both arms,
    # so invoice features carry no label signal.
    gaps = rng.exponential(cfg.mean_gap, steps - 1).tolist()
    return amount, picks, gaps[2:] + gaps[:2]


_BLOCKED = _Variant((None, AnomalyKind.BLOCKED_INVOICE), _Shapes([_blocked_shape(False), _blocked_shape(True)]), 1,
                    _blocked_draws)  # labels inv


def generate_blocked_invoices(cfg: SynthConfig) -> tuple[OcelLog, SynthGroundTruth]:
    """Variant for studying feature propagation: some orders skip approval,
    and exactly their invoices are labeled blocked.

    Invoice lifecycles are identically distributed for blocked and normal
    invoices, so the label is invisible from invoice features alone; the
    signal lives entirely in the related order's features (missing approval
    activities).
    """
    cfg.validate()
    return _generate(cfg, _BLOCKED)
